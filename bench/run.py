"""Benchmark of the eightblocks package, end to end and layer by layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                         [--out FILE] [--spans FILE]
    python3 bench/run.py --workload all ...     # every workload, one process
    python3 bench/run.py --workload A,B ...     # a list of workloads
    python3 bench/run.py --compare OLD.json NEW.json

NAME is one of the workloads in ``BENCHMARK.json`` (``census``,
``search-infeasible``, ``search-universal``, ``check``) or one of the
paper-size searches (``search-infeasible-24``, ``search-universal-full``).
The program is imported from ``src/`` of the checkout the script sits in;
nothing is installed.  Runs are serial in one process (``jobs=1``).

A run first times the set-up in several fresh processes, then
repeats rounds of the workload until ``--seconds`` have passed (at least
one round; a round is not started if the last one says it would end
past the deadline).  Every output is checked; a wrong verdict, an
exception, a nonzero exit or a search timeout is a failed operation.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace
1`` untraced and traced rounds alternate: the traced rounds give the
per-layer metrics, and traced minus untraced round time gives the
tracing overhead.  Count metrics of the traced rounds must agree
exactly; any that differ are named as drift and fail the run.

Each record carries its environment: Python and numpy versions, usable
CPUs, the load average and the time of a fixed calibration loop at start
and end, so runs on a busy shared host can be spotted.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when every gate passed, 1 when one failed and 2 when
the checkout holds no program to measure.  ``--out`` stores the full
record (environment, sample counts, failures) for ``--compare``, which
names every count that differs between two records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import layers
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: fresh set-up processes per run: at least this many, and more until
#: SETUP_MIN_S has passed, so cheap set-ups get a steadier median
SETUP_RUNS = 5
SETUP_MIN_S = 3.0
PROBE_TIMEOUT_S = 60


@dataclass
class Round:
    traced: bool
    wall: float
    latencies: list[float]
    failures: list[str]
    work: float
    layer: dict | None = None
    extra_counts: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


# ----------------------------------------------------------------------
# measurement


def probe_setup(w, layers_too: bool) -> list[dict]:
    cmd = [sys.executable, str(BENCH / "probe.py"), w.module, *w.tables]
    if layers_too:
        cmd.append("--layers")
    out = []
    deadline = time.perf_counter() + SETUP_MIN_S
    while len(out) < SETUP_RUNS or time.perf_counter() < deadline:
        done = subprocess.run(
            cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        out.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return out


def run_round(w, ops, tracer) -> Round:
    results = []
    latencies = []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    start = time.perf_counter()
    try:
        for key, op in ops:
            span = -1
            if tracer is not None:
                tracer.op += 1
                span = tracer.begin_span(w.name)
            t0 = time.perf_counter()
            try:
                results.append((key, op(), None))
            except Exception as exc:  # a failed operation, not a failed run
                results.append((key, None, f"{type(exc).__name__}: {exc}"))
            latencies.append(time.perf_counter() - t0)
            if span >= 0:
                tracer.end_span(span)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()

    failures = []
    work = 0.0
    for key, output, error in results:
        if error is None:
            try:
                error = w.gate(key, output)
            except Exception as exc:  # an output the gate cannot read is wrong
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error is None:
            work += w.work(output)
        else:
            failures.append(f"{key}: {error}")
    r = Round(tracer is not None, wall, latencies, failures, work)
    if tracer is not None:
        r.layer = layers.round_metrics(tracer)
        r.extra_counts = layers.extra_counts(tracer)
        r.spans = [[n, s - start, e - start, p, op] for n, s, e, p, op in tracer.spans]
    return r


def measure(w, seconds: float, tracer) -> list[Round]:
    ops = w.ops()
    rounds: list[Round] = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        rounds.append(run_round(w, ops, tracer if traced else None))
        have_both = tracer is None or len(rounds) >= 2
        if have_both and time.perf_counter() + rounds[-1].wall > deadline:
            return rounds


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop.

    The load average misses neighbours on a shared host that slow this
    process without running in its machine; a slower loop shows them.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def environment() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "calibration_ms_start": calibration_ms(),
    }


def run_workload(w, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the full record."""
    from eightblocks import symmetry
    from eightblocks.varieties import catalog

    env = environment()
    setups = probe_setup(w, trace)
    for table in w.tables:  # fill the lazy caches before timing
        getattr(symmetry, table)(catalog())
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        w.prepare(seed, Path(workdir))
        rounds = measure(w, seconds, Tracer(layers.BOUNDARIES) if trace else None)
    env["loadavg_end"] = list(os.getloadavg())
    env["calibration_ms_end"] = calibration_ms()

    failures = [f for r in rounds for f in r.failures]
    attempted = sum(len(r.latencies) for r in rounds)
    plain = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    latencies = [x for r in plain for x in r.latencies]
    p99 = percentile(latencies, 99)
    samples = {
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "setup_runs": len(setups),
        "latency": len(latencies),
        "beyond_p99": sum(1 for x in latencies if x > p99),
    }
    plain_wall = statistics.median(r.wall for r in plain)
    drift: list[str] = []
    if trace:
        metrics = {
            "varieties.catalog_s": statistics.median(s["catalog_s"] for s in setups),
            "symmetry.cell_perms_s": statistics.median(s["cell_perms_s"] for s in setups),
        }
        for name in traced[0].layer:
            values = [r.layer[name] for r in traced]
            if name in layers.COUNT_METRICS:
                if len(set(values)) > 1:
                    drift.append(f"{name}: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        traced_wall = statistics.median(r.wall for r in traced)
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        metrics["trace.overhead_ratio"] = (traced_wall - plain_wall) / plain_wall
        declared = [(name, unit) for name, unit, _ in layers.PER_LAYER]
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": plain_wall,
            "throughput_per_s": statistics.median(r.work / r.wall for r in plain),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_p99_ms": 1e3 * p99,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        declared = layers.END_TO_END
    failed = len(failures) + len(drift)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in declared},
    }
    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": env,
        "samples": samples,
        "fail_ratio": failed / attempted,
        "failures": failures[:20],
        "count_drift": drift,
        "extra_counts": traced[0].extra_counts if traced else {},
        "result": result,
        "spans": traced[0].spans if traced else [],
    }


# ----------------------------------------------------------------------
# reporting


def print_record(rec: dict) -> None:
    name = rec["workload"]
    env = rec["env"]
    s = rec["samples"]
    print(
        f"{name} env python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
        f"loadavg_start={env['loadavg_start']} loadavg_end={env['loadavg_end']} "
        f"calibration_ms={env['calibration_ms_start']:.2f}/{env['calibration_ms_end']:.2f}"
    )
    notes = {
        "setup_s": f"median of {s['setup_runs']} fresh processes",
        "wall_s": f"median of {s['rounds']} rounds",
        "throughput_per_s": f"median of {s['rounds']} rounds",
        "latency_p50_ms": f"n={s['latency']}",
        "latency_p99_ms": f"n={s['latency']}, {s['beyond_p99']} beyond",
    }
    for metric, m in rec["result"]["metrics"].items():
        note = notes.get(metric, f"{s['traced_rounds']} traced rounds" if rec["trace"] else "")
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    r = rec["result"]
    print(f"{name} fail_ratio {rec['fail_ratio']:.6g} ratio  ({r['failed']}/{r['attempted']})")
    for failure in rec["failures"]:
        print(f"{name} FAILED {failure}")
    for drift in rec["count_drift"]:
        print(f"{name} COUNT DRIFT {drift}")
    for key, n in rec["extra_counts"].items():
        print(f"{name} unlisted count {key} {n}")


def combined(records: list[dict]) -> dict:
    if len(records) == 1:
        return records[0]["result"]
    return {
        "correct": all(r["result"]["correct"] for r in records),
        "attempted": sum(r["result"]["attempted"] for r in records),
        "failed": sum(r["result"]["failed"] for r in records),
        "metrics": {
            f"{r['workload']}.{k}": v
            for r in records
            for k, v in r["result"]["metrics"].items()
        },
    }


def compare(old_path: str, new_path: str) -> int:
    """Print metric changes between two records; exit 1 on count drift."""

    def load(path):
        return {
            (r["workload"], r["trace"]): r
            for r in json.loads(Path(path).read_text())["records"]
        }

    old, new = load(old_path), load(new_path)
    drift = 0
    for key in sorted(old.keys() & new.keys()):
        o, n = old[key], new[key]
        same_inputs = o["seed"] == n["seed"] or o["workload"] != "check"
        for metric in sorted(o["result"]["metrics"].keys() & n["result"]["metrics"].keys()):
            a = o["result"]["metrics"][metric]
            b = n["result"]["metrics"][metric]
            if a["unit"] == "count":
                if same_inputs and a["value"] != b["value"]:
                    drift += 1
                    print(f"{key[0]} COUNT DRIFT {metric} {a['value']} -> {b['value']}")
                continue
            change = (b["value"] - a["value"]) / a["value"] if a["value"] else float("nan")
            print(f"{key[0]} {metric} {a['value']:.6g} -> {b['value']:.6g} {a['unit']} ({change:+.1%})")
    print(json.dumps({"count_drift": drift}))
    return 1 if drift else 0


# ----------------------------------------------------------------------
# entry point


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the full records as JSON")
    p.add_argument("--spans", help="write the first traced round's spans as JSON lines")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args(argv)
    if not args.compare and not args.workload:
        p.error("--workload is required")
    return args


def main(argv=None, registry=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "eightblocks" / "__init__.py").is_file():
        print(f"error: no eightblocks sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    if registry is None:
        registry = {**workloads.WORKLOADS, **workloads.PAPER_WORKLOADS}
    names = list(workloads.WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in registry]
    if unknown:
        print(f"error: unknown workload {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [registry[n] for n in names]

    records = []
    for w in chosen:
        rec = run_workload(w, args.seed, args.seconds, bool(args.trace))
        print_record(rec)
        records.append(rec)
    if args.out:
        slim = [{k: v for k, v in r.items() if k != "spans"} for r in records]
        Path(args.out).write_text(json.dumps({"records": slim}, indent=1) + "\n")
    if args.spans:
        with open(args.spans, "w") as fh:
            for r in records:
                for span in r["spans"]:
                    fh.write(json.dumps([r["workload"], *span]) + "\n")
    result = combined(records)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
