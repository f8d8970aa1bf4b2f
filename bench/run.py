"""Benchmark of the ``lepage`` engine: three workloads, end to end and per layer.

    python3 bench/run.py --workload {cli-session,acceptance-corpus,wide-chart}
                         [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source tree: ``src/lepage`` is imported from there
and nothing is installed.  Load is a closed loop with one client: one
process at a time, the next sample starting when the previous one has
ended.  Every sample runs in a fresh interpreter, so the cold cost users pay
on each run is measured and no cache can carry state from one sample into
the next.

* ``cli-session``: one sample per command, ``python -m lepage.cli ...``.
  Set-up is a fresh interpreter doing ``import lepage.cli``
  (``bench/import_probe.py``).
* ``acceptance-corpus`` and ``wide-chart``: one sample per pass over all
  items.  Set-up is interpreter start, ``import lepage`` and parsing every
  item's source text.

Whole passes run until ``--seconds`` have elapsed (at least one pass), so
every run measures the same mix of items.  The seed shuffles the item order
and generates the wide-chart Lagrangians.

Times are reported at a nominal machine speed: every sample runs under
``speed.SpeedSampler``, and each measured time, less the sampler's own
time, is divided by the slowdown the samples show (over that set-up, that
item or that pass).  The import probe instead times the reference right
after its import, so that nothing is imported before ``lepage.cli``.  The
report states the pass slowdowns.

An item that raises or gives a wrong output is a failed item.  So is every
item of a pass whose process times out or dies: the pass then counts a rate
of 0 and no latencies.  Every sample's time limit ends before
``RUN_LIMIT_S``, so a run ends within about that time whatever hangs.

End-to-end metrics: ``setup_s`` (median set-up), ``latency_p50_s`` and
``latency_p90_s`` (over items, each item taken at its median over the
passes, so that the number of passes a run holds does not move them),
``items_per_s``
(median over passes, set-up excluded), ``peak_rss_mb`` (largest sample process) and ``ok_share`` (share
of attempted items whose output is right; one minus the failed share, so it
is never 0 while anything works).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate, every item running in-process (``run_command`` for the CLI), and
the object holds the per-layer metrics of the first traced pass; its spans
are written to ``.bench_out/spans-<workload>.json``.  Self times are as
measured, less the speed samples; ``trace.overhead_share`` compares the
traced and untraced throughputs at nominal speed.  The lines before the
object give each metric with its unit and sample count, and every wrong
output.  ``correct`` is false when an output is wrong other than the known
defects listed in ``workloads.KNOWN_ANSWERS``; those count in ``failed``.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from speed import item_slowdown, slowdown

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
IMPORT_PROBES = 5
SAMPLE_TIMEOUT_S = 150.0
# a run gives no sample time beyond this many seconds after it started
RUN_LIMIT_S = 165.0
_run_deadline: float | None = None

UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}


class SampleTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise SampleTimeout


def run_child(argv: list[str], timeout: float | None = None) -> dict:
    """Run one process to its end: exit code, output, start, wall time and peak RSS.

    ``os.wait4`` gives the child's own resource usage; an interval timer
    bounds the wait, and a child that overruns is killed and reaped.  The
    default limit is ``SAMPLE_TIMEOUT_S``, cut short by the run's deadline.
    """
    if timeout is None:
        timeout = SAMPLE_TIMEOUT_S
        if _run_deadline is not None:
            timeout = max(1.0, min(timeout, _run_deadline - time.perf_counter()))
    # a fixed hash seed keeps set iteration order, and with it the traced
    # call counts, the same from run to run
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        proc = None
        try:
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, timeout)
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            proc.returncode = code = os.waitstatus_to_exitcode(status)
        except SampleTimeout:
            rss_mb = None
            if proc is not None:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                rss_mb = usage.ru_maxrss / 1024.0
            return {"exit": None, "stdout": "", "stderr": f"timed out after {timeout:.1f} s",
                    "start": start, "wall": timeout, "rss_mb": rss_mb}
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        out.seek(0)
        err.seek(0)
        return {
            "exit": code,
            "stdout": out.read().decode("utf-8", "replace"),
            "stderr": err.read().decode("utf-8", "replace"),
            "start": start,
            "wall": wall,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------


def _sample_result(argv: list[str]) -> tuple[dict, dict | None]:
    """Run ``sample.py`` with a result file; returns the process record and the file's JSON."""
    fd, result_path = tempfile.mkstemp(dir=OUT, suffix=".json")
    os.close(fd)
    try:
        result = run_child([sys.executable, str(BENCH / "sample.py"), *argv[:1], result_path, *argv[1:]])
        doc = None
        if os.path.getsize(result_path):
            with open(result_path, encoding="utf-8") as handle:
                doc = json.load(handle)
    finally:
        os.unlink(result_path)
    return result, doc


def cli_import_sample() -> dict:
    """A fresh interpreter doing ``import lepage.cli``.

    Adds ``setup_s``, the seconds from the start of the process to the end
    of the import, to the probe's report.
    """
    result = run_child([sys.executable, str(BENCH / "import_probe.py")])
    if result["exit"] != 0:
        raise RuntimeError(f"import lepage.cli failed: {result['stderr'].strip()}")
    doc = json.loads(result["stdout"].splitlines()[-1])
    # the parent's reading before the start and the child's come from one
    # system-wide monotonic clock
    return dict(doc, setup_s=doc["end"] - result["start"])


def cli_command_sample(item: dict) -> dict:
    result, doc = _sample_result(["--command", *item["argv"]])
    output = None if result["exit"] is None else {"exit": result["exit"], "stdout": result["stdout"]}
    spent, refs, ref_at = (doc["spent"], doc["refs"], doc["ref_at"]) if doc else (0.0, [], [])
    return {"id": item["id"], "seconds": result["wall"] - spent, "output": output,
            "rss_mb": result["rss_mb"], "spent": spent, "refs": refs, "ref_at": ref_at,
            "start": result["start"], "end": result["start"] + result["wall"]}


def pass_sample(workload: str, items: list[dict], *, trace: bool = False,
                setup_only: bool = False, spans_path: Path | None = None) -> dict:
    """One fresh interpreter that sets up and runs every item once, in order.

    Adds the set-up and pass times less the speed samples' own time
    (``setup_s``, ``pass_s``), set-up at nominal speed (``setup_norm_s``)
    and the slowdown over the items (``slowdown``).  A pass that does not
    finish gives only ``failure``, the reason, ``wall`` and ``rss_mb``.
    """
    spec = {"workload": workload, "items": items, "trace": trace, "setup_only": setup_only,
            "spans_path": str(spans_path) if spans_path else None}
    fd, spec_path = tempfile.mkstemp(dir=OUT, suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        result, doc = _sample_result([spec_path])
    finally:
        os.unlink(spec_path)
    if result["exit"] != 0 or doc is None:
        reason = result["stderr"].strip()[-600:] or f"exit {result['exit']}"
        return {"failure": reason, "wall": result["wall"], "rss_mb": result["rss_mb"]}
    # the parent's clock reading before the start and the child's readings
    # come from one system-wide monotonic clock
    doc["setup_s"] = doc["setup_end"] - result["start"] - doc["setup_spent"]
    doc["pass_s"] = doc["pass_end"] - doc["setup_end"] - (doc["spent"] - doc["setup_spent"])
    doc["rss_mb"] = result["rss_mb"]
    doc["setup_norm_s"] = doc["setup_s"] / slowdown(doc["refs"][:doc["setup_refs"]])
    doc["slowdown"] = slowdown(doc["refs"][doc["setup_refs"]:])
    return doc


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


class Tally:
    """Item outcomes of one run: attempted, failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.failed = 0
        self.unexpected = 0

    def add_unfinished(self, items: list[dict], doc: dict, lines: list) -> None:
        """Every item of a pass that did not finish is a failed item."""
        lines.append(f"# pass did not finish after {doc['wall']:.1f} s: "
                     f"{doc['failure'].splitlines()[-1]}")
        for item in items:
            self.add(item, None)

    def add(self, item: dict, output: dict | None) -> None:
        self.attempted += 1
        reason = workloads.judge(item, output)
        if reason is not None:
            self.failed += 1
            self.failures.setdefault(item["id"], reason)
            if item["id"] not in workloads.KNOWN_ANSWERS:
                self.unexpected += 1


def setup_sample(workload: str, items: list[dict]) -> float:
    """Set-up seconds of one fresh interpreter, divided by the slowdown it saw."""
    if workload == "cli-session":
        doc = cli_import_sample()
        return doc["setup_s"] / slowdown(doc["refs"])
    doc = pass_sample(workload, items, setup_only=True)
    if "failure" in doc:
        raise RuntimeError(f"{workload} set-up failed: {doc['failure']}")
    return doc["setup_norm_s"]


def end_to_end(workload: str, items: list[dict], seconds: float, tally: Tally, lines: list) -> dict:
    """Times are divided by the machine's slowdown: per set-up, per item and per pass."""
    by_id = {item["id"]: item for item in items}
    library = workload != "cli-session"
    setup_sample(workload, items)  # unmeasured: writes the bytecode caches of a fresh tree
    setups = [setup_sample(workload, items) for _ in range(SETUP_PROBES)]
    refs: list[float] = []
    by_item: dict[str, list[float]] = {}
    rates, rss, slowdowns, unfinished = [], [], [], []
    began = time.perf_counter()
    while True:
        if library:
            doc = pass_sample(workload, items)
            if doc["rss_mb"] is not None:
                rss.append(doc["rss_mb"])
            if "failure" in doc:
                tally.add_unfinished(items, doc, lines)
                rates.append(0.0)
                unfinished.append(doc["wall"])
                if time.perf_counter() - began >= seconds:
                    break
                continue
            setups.append(doc["setup_norm_s"])
            samples, pass_s = doc["items"], doc["pass_s"]
            pass_refs = doc["refs"][doc["setup_refs"]:]
            near_refs, near_at = doc["refs"], doc["ref_at"]
        else:
            start = time.perf_counter()
            samples = [cli_command_sample(item) for item in items]
            pass_s = time.perf_counter() - start - sum(s["spent"] for s in samples)
            pass_refs = near_refs = [r for s in samples for r in s["refs"]]
            near_at = [at for s in samples for at in s["ref_at"]]
            rss.extend(s["rss_mb"] for s in samples if s["rss_mb"] is not None)
        factor = slowdown(pass_refs)
        slowdowns.append(factor)
        refs.extend(pass_refs)
        for sample in samples:
            tally.add(by_id[sample["id"]], sample["output"])
            by_item.setdefault(sample["id"], []).append(sample["seconds"] / item_slowdown(
                near_refs, near_at, sample["start"], sample["end"], factor))
        rates.append(len(items) / (pass_s / factor))
        if time.perf_counter() - began >= seconds:
            break
    latencies = [statistics.median(values) for values in by_item.values()]
    if not latencies:  # no pass finished: its items took at least the pass
        latencies = unfinished
    measured = sum(len(values) for values in by_item.values()) or len(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "latency_p50_s": (percentile(latencies, 50), measured),
        "latency_p90_s": (percentile(latencies, 90), measured),
        "items_per_s": (statistics.median(rates), len(rates)),
        "peak_rss_mb": (max(rss), len(rss)),
        "ok_share": (1 - tally.failed / tally.attempted, tally.attempted),
    }
    lines.append(f"# {workload} machine slowdown against the nominal reference, per finished pass: "
                 f"{' '.join(f'{f:.3f}' for f in slowdowns)} ({len(refs)} speed samples)")
    for name, (value, count) in metrics.items():
        lines.append(f"# {workload} {name} = {value:.6g} {UNITS[name]} ({count} samples)")
    return {name: {"value": value, "unit": UNITS[name]} for name, (value, _) in metrics.items()}


LAYER_UNITS = {"calls": "count", "self_s": "s", "repeat_self_s": "s", "distinct_share": "share",
               "import_s": "s", "overhead_share": "share", "wall_s": "s", "bytes_out": "bytes"}


def traced(workload: str, items: list[dict], seconds: float, tally: Tally, lines: list) -> dict:
    by_id = {item["id"]: item for item in items}
    setup_sample(workload, items)
    imports = [cli_import_sample()["import_s"] for _ in range(IMPORT_PROBES)]
    plain_rates, traced_rates = [], []
    layers = None
    began = time.perf_counter()
    while True:
        plain = pass_sample(workload, items)
        spans = OUT / f"spans-{workload}.json" if layers is None else None
        doc = pass_sample(workload, items, trace=True, spans_path=spans)
        if "failure" in plain or "failure" in doc:
            for unfinished in (plain, doc):
                if "failure" in unfinished:
                    tally.add_unfinished(items, unfinished, lines)
            if time.perf_counter() - began >= seconds:
                break
            continue
        for sample in plain["items"] + doc["items"]:
            tally.add(by_id[sample["id"]], sample["output"])
        plain_rates.append(len(items) * plain["slowdown"] / plain["pass_s"])
        traced_rates.append(len(items) * doc["slowdown"] / doc["pass_s"])
        if layers is None:
            layers = doc["layers"]
        if time.perf_counter() - began >= seconds:
            break
    if layers is None:
        raise RuntimeError(f"no traced {workload} pass finished")
    layers["cli.import_s"] = statistics.median(imports)
    layers["trace.overhead_share"] = 1 - statistics.median(traced_rates) / statistics.median(plain_rates)
    lines.append(f"# {workload} traced passes: {len(traced_rates)}, untraced: {len(plain_rates)}, "
                 f"import probes: {len(imports)}; spans in {OUT.name}/spans-{workload}.json")
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    lines.append(f"# {workload} sum of traced self times {self_total:.4f} s "
                 f"<= traced wall {layers['trace.wall_s']:.4f} s")
    out = {}
    for name, value in layers.items():
        unit = LAYER_UNITS.get(name.rsplit(".", 1)[1], "count")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lepage" / "__init__.py").is_file():
        print(f"error: no src/lepage under {ROOT}; run from a lepage source tree", file=sys.stderr)
        return 2
    global _run_deadline
    _run_deadline = time.perf_counter() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    items = workloads.make_items(args.workload, args.seed)
    tally = Tally()
    lines: list[str] = []
    measure = traced if args.trace else end_to_end
    metrics = measure(args.workload, items, args.seconds, tally, lines)
    for item_id, reason in sorted(tally.failures.items()):
        known = " (known defect)" if item_id in workloads.KNOWN_ANSWERS else ""
        lines.append(f"# wrong output{known}: {item_id}: {reason}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
