"""Golden identity: outputs reproduce the answers recorded in ``bench/golden``.

The benchmark judges its runs against these files; checking them here makes
a changed byte of output a test failure, and a failed acceptance check on a
corpus member one too.  The files and ``bench/workloads.py`` are only read.
"""
import hashlib
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


# The sha256 of every section below, recorded before the operators and
# make_form computed on kernel quotients; a later change to the kernel that
# claims byte-identical output proves it by keeping this literal.
OUTPUT_DIGEST = "989fee8bb6db250ea72864a7780e4d9b4dd5c484ae879c5b86ac32de02e6fabe"

SAMPLED = ["(sin(y)^2+cos(y)^2-1)*y_1^2", "exp(y)*exp(y_1) - exp(y+y_1)", "sin(y)^2 - sin(y_1)^2"]


def _form_sections(forms: dict):
    for name, form in forms.items():
        yield name
        yield lp.form_to_text(form)
        yield lp.form_to_latex(form)
        yield lp.form_to_json(form)


def _lagrangian_sections(lam, checked: bool):
    """Text, LaTeX and JSON of Theta, Lambda, Z and E, and of d of the first
    three; with ``checked``, describe() of every check on them."""
    if lam.r == 1:
        forms = {"theta": lp.principal_lepage(lam), "lambda": lp.caratheodory_first(lam),
                 "z": lp.fundamental_first_order(lam)}
    else:
        forms = {"theta": lp.principal_lepage(lam), "lambda": lp.caratheodory_second(lam)}
        reducible = lp.order_reducible(lam)
        if reducible.passed and lam.ctx.n == 2:
            forms["z"] = lp.fundamental_second_order_n2(lam)[0]
    yield from _form_sections({**forms, "e": lp.euler_lagrange_form(lam)})
    yield from _form_sections({f"d {name}": lp.exterior_derivative(f) for name, f in forms.items()})
    if not checked:
        return
    reports = [lp.is_lepage_equivalent(f, lam) for f in forms.values()]
    reports += [lp.closure_check(f) for f in forms.values()]
    reports.append(lp.is_trivial(lam))
    if lam.r == 2:
        reports += [lp.trivial_conditions_second_order(lam), reducible,
                    lp.el_expansion_crosscheck(lam)]
        if reducible.passed:
            reports.append(lp.combination_conditions(lam))
    yield from (report.describe(lam.ctx.m) for report in reports)


def _output_sections():
    for lam in lp.first_order_corpus() + lp.second_order_corpus():
        yield lp.expr_to_text(lam.L)
        yield from _lagrangian_sections(lam, checked=True)
    for seed in (1, 2, 3):
        for item in workloads.wide_chart_items(seed):
            lam = lp.parse_lagrangian(
                lp.LagrangianSpec(item["n"], item["m"], item["order"], item["source"]))
            yield item["source"]
            yield from _lagrangian_sections(lam, checked=False)
    yield lp.calibrate_convention().render()
    commands = [argv for _, argv in workloads.CLI_COMMANDS]
    commands += [["check", "trivial", "--order", "1", "--lagrangian", source] for source in SAMPLED]
    for argv in commands:
        if "--format" in argv:
            at = argv.index("--format")
            argv = argv[:at] + argv[at + 2:]
        for fmt in ("text", "latex", "json"):
            out = workloads.run_item("cli-session", {}, argv + ["--format", fmt])
            yield f"{' '.join(argv)} {fmt} -> {out['exit']}\n{out['stdout']}"


def test_outputs_hash_to_the_pinned_digest():
    digest = hashlib.sha256()
    for section in _output_sections():
        digest.update(section.encode())
        digest.update(b"\0")
    assert digest.hexdigest() == OUTPUT_DIGEST
