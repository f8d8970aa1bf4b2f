"""Record a baseline: every workload, untraced and traced, plus reference rows.

    python3 bench/baseline.py [--seed N] [--seconds S] [--out PATH]

Runs ``bench/run.py`` on each workload with ``--trace 0`` and ``--trace 1``,
printing each run's report; times four reference items, each in fresh
interpreters (median of ``REPEATS``); measures the wide-chart checks the
benchmark skips; and writes everything with the interpreter version,
processor count and CPU model to ``bench/baseline.json`` (or ``--out``).  The reference rows and skipped
checks are raw seconds, not scaled to the nominal speed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import run
import workloads

REPEATS = 5

# Each reference item is a short program run in a fresh interpreter; it
# prints the seconds of its timed region.
_RUNG_N4M2 = """
import time, lepage as lp
lam = lp.parse_lagrangian(lp.LagrangianSpec(4, 2, 1, {source!r}))
start = time.perf_counter()
lp.{constructor}(lam)
print(time.perf_counter() - start)
"""

_CRITERIA_1_5 = """
import importlib.util, io, contextlib, time
spec = importlib.util.spec_from_file_location("acceptance", "tests/test_acceptance.py")
acceptance = importlib.util.module_from_spec(spec)
spec.loader.exec_module(acceptance)
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    acceptance.test_criterion_1_lepage_equivalent_contract()
    acceptance.test_criterion_5_condition_family_consistency()
print(time.perf_counter() - start)
"""

_SKIPPED_CHECK = """
import time, lepage as lp
lam = lp.parse_lagrangian(lp.LagrangianSpec({n}, {m}, {r}, {source!r}))
form = lp.{constructor}(lam)
start = time.perf_counter()
assert lp.is_lepage_equivalent(form, lam).passed
print(time.perf_counter() - start)
"""

# Wide-chart rungs whose Lepage checks the workload leaves out, and why.
# The other n >= 3, r = 2 rungs take longer than (3, 1, 2) and are not timed.
_REPEATS_DIFF = "left out of wide-chart: about half the check's time is repeated diff calls"
SKIPPED_CHECKS = {
    (2, 2, 2): "left out of wide-chart: with it a run would hold too few passes",
    (3, 1, 1): _REPEATS_DIFF,
    (3, 2, 1): _REPEATS_DIFF,
    (4, 1, 1): _REPEATS_DIFF,
    (4, 2, 1): _REPEATS_DIFF,
    (3, 1, 2): "left out of wide-chart: longer than a run",
}


def timed_program(code: str) -> float:
    result = run.run_child([sys.executable, "-c", code], timeout=600)
    if result["exit"] != 0:
        raise RuntimeError(result["stderr"])
    return float(result["stdout"])


def median_of(fn) -> dict:
    values = [fn() for _ in range(REPEATS)]
    return {"median_s": statistics.median(values), "samples": values}


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


# The n = 4, m = 2 reference Lagrangian: every first derivative, squared,
# plus a constant that keeps it nonvanishing.
REFERENCE_N4M2 = "1 + y1_1^2 + y1_2^2 + y1_3^2 + y1_4^2 + y2_1^2 + y2_2^2 + y2_3^2 + y2_4^2"


def reference_rows() -> dict:
    rows = {}
    for constructor in ("caratheodory_first", "fundamental_first_order"):
        code = _RUNG_N4M2.format(source=REFERENCE_N4M2, constructor=constructor)
        rows[f"{constructor} n=4 m=2"] = dict(median_of(lambda: timed_program(code)),
                                               lagrangian=REFERENCE_N4M2)
    rows["acceptance criteria 1+5"] = median_of(lambda: timed_program(_CRITERIA_1_5))
    calibrate = workloads.CLI_COMMANDS[[i for i, _ in workloads.CLI_COMMANDS].index("calibrate")][1]
    rows["lepage calibrate"] = median_of(
        lambda: run.run_child([sys.executable, "-m", "lepage.cli", *calibrate])["wall"])
    return rows


def skipped_checks(seed: int) -> dict:
    out = {}
    for (n, m, r), why in SKIPPED_CHECKS.items():
        constructor = "caratheodory_first" if r == 1 else "caratheodory_second"
        source = workloads.wide_chart_source(seed, n, m, r)
        code = _SKIPPED_CHECK.format(n=n, m=m, r=r, source=source, constructor=constructor)
        out[workloads.rung_id(n, m, r)] = {
            f"is_lepage_equivalent({constructor})_s": timed_program(code),
            "why": why,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out", default=str(run.BENCH / "baseline.json"))
    args = parser.parse_args(argv)
    run.OUT.mkdir(exist_ok=True)
    record = {
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
        },
        "seed": args.seed,
        "run_seconds": args.seconds,
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run.run_child(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                timeout=600,
            )
            if result["exit"] != 0:
                raise RuntimeError(f"{workload} --trace {trace}: {result['stderr']}")
            lines = result["stdout"].strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            record["workloads"].setdefault(workload, {})["traced" if trace else "end_to_end"] = {
                "report": lines[:-1], "result": json.loads(lines[-1]),
            }
    record["reference_rows"] = reference_rows()
    record["skipped_wide_chart_checks"] = skipped_checks(args.seed)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
