"""Record the known answers the benchmark judges outputs against.

    PYTHONPATH=src python3 bench/capture.py

Writes, under ``bench/golden/``:

* ``cli_session.json``: exit code and exact stdout of every CLI command of
  the ``cli-session`` workload (items judged by a known answer instead are
  left out);
* ``acceptance_corpus.json``: every member of ``first_order_corpus()`` and
  ``second_order_corpus()`` as source text, with the verdicts acceptance
  criterion 5 checks against each other (which members are trivial and which
  are order-reducible);
* ``wide_chart.json``: for seeds ``0 .. WIDE_CHART_SEEDS - 1``, a digest of
  the JSON of every form built on every ladder rung.

Run it at a commit whose outputs are trusted; later commits must reproduce
these answers byte for byte.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import workloads

WIDE_CHART_SEEDS = 64
ROOT = Path(__file__).resolve().parent.parent


def capture_cli() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    golden = {}
    for item_id, argv in workloads.CLI_COMMANDS:
        if item_id in workloads.KNOWN_ANSWERS:
            continue
        proc = subprocess.run([sys.executable, "-m", "lepage.cli", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
        golden[item_id] = {"exit": proc.returncode, "stdout": proc.stdout}
    return golden


def capture_corpus() -> list[dict]:
    import lepage as lp
    from lepage.expr import expr_key

    policy = lp.ZeroPolicy()
    members = []
    for prefix, corpus in (("first", lp.first_order_corpus()), ("second", lp.second_order_corpus())):
        for k, lam in enumerate(corpus):
            source = lp.expr_to_text(lam.L)
            spec = lp.LagrangianSpec(lam.ctx.n, lam.ctx.m, lam.r, source)
            if expr_key(lp.parse_lagrangian(spec).L) != expr_key(lam.L):
                raise SystemExit(f"{prefix}-{k}: {source!r} does not parse back to the member")
            member = {"id": f"{prefix}-{k:02d}", "n": lam.ctx.n, "m": lam.ctx.m,
                      "order": lam.r, "source": source}
            if lam.r == 2:
                member["trivial"] = lp.is_trivial(lam, policy).passed
                member["reducible"] = lp.order_reducible(lam, policy=policy).passed
            members.append(member)
    return members


def capture_wide_chart() -> dict:
    import lepage as lp

    golden = {}
    for seed in range(WIDE_CHART_SEEDS):
        digests = {}
        for item in workloads.wide_chart_items(seed):
            lam = lp.parse_lagrangian(
                lp.LagrangianSpec(item["n"], item["m"], item["order"], item["source"]))
            digests[item["id"]] = workloads.forms_digest(workloads.build_rung(lam))
        golden[str(seed)] = digests
    return golden


def main() -> int:
    workloads.GOLDEN.mkdir(exist_ok=True)
    outputs = {
        "cli_session.json": capture_cli(),
        "acceptance_corpus.json": capture_corpus(),
        "wide_chart.json": capture_wide_chart(),
    }
    for name, doc in outputs.items():
        path = workloads.GOLDEN / name
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
