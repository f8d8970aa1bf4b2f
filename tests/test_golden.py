"""Golden identity: outputs reproduce the answers recorded in ``bench/golden``.

The benchmark judges its runs against these files; checking them here makes
a changed byte of output a test failure, and a failed acceptance check on a
corpus member one too.  The files and ``bench/workloads.py`` are only read.
"""
import importlib.util
import json
from pathlib import Path

import pytest

import lepage as lp

BENCH = Path(__file__).resolve().parents[1] / "bench"
_spec = importlib.util.spec_from_file_location("golden_workloads", BENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

WIDE_CHART_SEEDS = (0, 1, 2)
CLI_GOLDEN = json.loads((BENCH / "golden" / "cli_session.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", WIDE_CHART_SEEDS)
def test_wide_chart_digests(seed):
    items = workloads.wide_chart_items(seed)
    assert len(items) == len(workloads.LADDER)
    for item in items:
        lam = lp.parse_lagrangian(
            lp.LagrangianSpec(item["n"], item["m"], item["order"], item["source"]))
        digest = workloads.forms_digest(workloads.build_rung(lam))
        assert digest == item["expect"]["digest"], item["id"]


CLI_CASES = [(i, argv) for i, argv in workloads.CLI_COMMANDS if i not in workloads.KNOWN_ANSWERS]


@pytest.mark.parametrize("item_id, argv", CLI_CASES, ids=[i for i, _ in CLI_CASES])
def test_cli_output(item_id, argv):
    got = workloads.run_item("cli-session", {"id": item_id}, argv)
    assert got == CLI_GOLDEN[item_id]


CORPUS = workloads.corpus_items(workloads.DEFAULT_SEED)


@pytest.mark.parametrize("item", CORPUS, ids=[item["id"] for item in CORPUS])
def test_acceptance_corpus(item):
    output = workloads.run_item("acceptance-corpus", item, workloads.prepare("acceptance-corpus", item))
    assert workloads.judge(item, output) is None


def test_library_corpora_are_the_golden_corpus():
    # the acceptance corpus is recorded as source text; the library builds
    # the same members, in order, from its own source text
    golden = json.loads((BENCH / "golden" / "acceptance_corpus.json").read_text(encoding="utf-8"))
    members = lp.first_order_corpus() + lp.second_order_corpus()
    got = [(lp.expr_to_text(lam.L), lam.ctx.n, lam.ctx.m, lam.r) for lam in members]
    assert got == [(item["source"], item["n"], item["m"], item["order"]) for item in golden]
