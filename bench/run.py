"""Benchmark harness for linhyper: drives the CLI in-process on four workloads.

Run from the repository root:

    python3 bench/run.py --workload exact_desk --seed 1 --seconds 20 --trace 0

An op is one CLI command, run through ``linhyper.cli.main(argv)`` with its
stdout captured and checked (see ``checks.py``).  A run builds the workload's
op cycle from ``--seed`` and repeats it until ``--seconds`` have passed, then
prints a run record line and, as the last line, one JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing; their times are rescaled to a fixed machine speed (see
``reference_seconds``), and the raw ones go in the run record.  With
``--trace 1`` every op is also replayed through the library's public
functions (see ``replay.py``) and the metrics are the per-layer ones.
The library is imported from ``src/`` next to this directory; without it the
harness exits non-zero and prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from checks import check_op  # noqa: E402
from workloads import KNOWN_DEFECT, WORKLOADS, build_cycle  # noqa: E402

# Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 5
# Seconds the reference work takes at the speed the end-to-end times are
# rescaled to (about its median on the 2-vCPU machine the bounds were set on).
REFERENCE_S = 0.015

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "exact_oracle.report_s": "s",
    "exact_oracle.sweep_s": "s",
    "exact_oracle.graphs_per_s": "1/s",
    "exact_oracle.battery_us_per_graph": "us",
    "exact_oracle.hyper_sweep_s": "s",
    "bigraph_core.classify_us": "us",
    "bigraph_core.four_cycles_us": "us",
    "bigraph_core.has_four_cycle_us": "us",
    "switching_engine.girth_trial_us": "us",
    "switching_engine.girth_rejects_per_trial": "count",
    "switching_engine.pairing_draw_us": "us",
    "switching_engine.pairing_rejects_per_draw": "count",
    "switching_engine.sample_s": "s",
    "switching_engine.steps_per_sample": "count",
    "switching_engine.restarts_per_sample": "count",
    "switching_engine.bplus_rejects_per_sample": "count",
    "switching_engine.candidates_per_step": "count",
    "switching_engine.candidates_s": "s",
    "switching_engine.check_forward_us": "us",
    "degree_model.thresholds_us": "us",
    "asymptotics.estimate_us": "us",
    "cli.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def monotonic() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_library():
    """Import linhyper from ``src/`` beside the benchmark, and nowhere else."""
    if not (SRC / "linhyper" / "__init__.py").is_file():
        sys.exit(f"error: no linhyper sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import linhyper

    if Path(linhyper.__file__).resolve().parent != SRC / "linhyper":
        sys.exit(f"error: linhyper was imported from {linhyper.__file__}, not {SRC}")
    return linhyper


def reference_seconds() -> float:
    """Median of five timings of a fixed piece of reference work: pure-Python
    allocation, hashing and sorting, the kind of interpreter work the library
    does, but no library code.  The speed of a shared machine drifts by up to
    2x within a minute, and the library's times drift with this reference
    (README.md, "Run-to-run spread"), so each end-to-end time is rescaled by
    REFERENCE_S over the reference timed next to it.  The collector is off so
    that the time does not depend on how many objects the library keeps."""
    timings = []
    gc.disable()
    try:
        for _ in range(5):
            start = time.perf_counter()
            table = {}
            for i in range(16_000):
                table[(i * 7919) % 16_033] = (i, str(i))
            sorted(table.items())
            timings.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(timings)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time from starting a fresh interpreter until it has imported
    linhyper and built the workload's inputs: raw, and rescaled by the
    reference timed in the same interpreter right after."""
    samples, scaled = [], []
    for _ in range(SETUP_PROBES):
        start = monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.exit(f"error: setup probe failed: {proc.stderr.strip()}")
        end, reference = map(float, proc.stdout.split()[-2:])
        samples.append(end - start)
        scaled.append((end - start) * REFERENCE_S / reference)
    return statistics.median(samples), statistics.median(scaled)


def invoke(cli_main, argv) -> tuple[object, str, str]:
    """Run one CLI command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash fails this op; the run goes on
            rc = f"exception {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def git_rev() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def layer_metrics(spans, overheads: list[float], op_seconds: float,
                  replay_seconds: float) -> dict[str, float]:
    """Per-layer metrics from the traced replay's spans.  ``overheads`` holds
    each replayed op's time minus the library calls it wraps; ``op_seconds``
    and ``replay_seconds`` are the untraced ops' and the replays' total time."""
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name):
        return sum(s.seconds for s in by_name.get(name, ()))

    def mean(name, scale=1.0):
        calls = by_name.get(name, ())
        return scale * total(name) / len(calls) if calls else 0.0

    def count(name, key):
        return sum(s.counts[key] for s in by_name.get(name, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    graphs = count("exact_oracle.enumerate_all", "graphs")
    sweep = total("exact_oracle.enumerate_all")
    samples = len(by_name.get("switching_engine.sample_no4cycle", ()))
    girth_trials = count("switching_engine.monte_carlo_girth", "trials")
    draws = len(by_name.get("switching_engine.pairing_sample", ()))
    return {
        "exact_oracle.report_s": mean("exact_oracle.full_report"),
        "exact_oracle.sweep_s": mean("exact_oracle.enumerate_all"),
        "exact_oracle.graphs_per_s": ratio(graphs, sweep),
        "exact_oracle.battery_us_per_graph":
            1e6 * ratio(total("exact_oracle.enumerate_bplus") - sweep, graphs),
        "exact_oracle.hyper_sweep_s": mean("exact_oracle.count_hypergraphs"),
        "bigraph_core.classify_us": mean("bigraph_core.classify", 1e6),
        "bigraph_core.four_cycles_us": mean("bigraph_core.four_cycles", 1e6),
        "bigraph_core.has_four_cycle_us": mean("bigraph_core.has_four_cycle", 1e6),
        "switching_engine.girth_trial_us":
            1e6 * ratio(total("switching_engine.monte_carlo_girth"), girth_trials),
        "switching_engine.girth_rejects_per_trial":
            ratio(count("switching_engine.monte_carlo_girth", "rejections"), girth_trials),
        "switching_engine.pairing_draw_us": mean("switching_engine.pairing_sample", 1e6),
        "switching_engine.pairing_rejects_per_draw":
            ratio(count("switching_engine.pairing_sample", "rejections"), draws),
        "switching_engine.sample_s": mean("switching_engine.sample_no4cycle"),
        "switching_engine.steps_per_sample":
            ratio(count("switching_engine.sample_no4cycle", "steps"), samples),
        "switching_engine.restarts_per_sample":
            ratio(count("switching_engine.sample_no4cycle", "restarts"), samples),
        "switching_engine.bplus_rejects_per_sample":
            ratio(count("switching_engine.sample_no4cycle", "bplus_rejections"), samples),
        "switching_engine.candidates_per_step":
            ratio(count("switching_engine.forward_candidates", "candidates"),
                  len(by_name.get("switching_engine.forward_candidates", ()))),
        "switching_engine.candidates_s": mean("switching_engine.forward_candidates"),
        "switching_engine.check_forward_us": mean("switching_engine.check_forward", 1e6),
        "degree_model.thresholds_us": mean("degree_model.thresholds", 1e6),
        "asymptotics.estimate_us": mean("asymptotics.estimate", 1e6),
        "cli.overhead_s": statistics.fmean(overheads) if overheads else 0.0,
        "trace.overhead_ratio": ratio(replay_seconds, op_seconds),
    }


def run(args) -> dict:
    loadavg_start = os.getloadavg()
    setup = (None, None) if args.trace else measure_setup(args.workload, args.seed)
    lh = load_library()
    from linhyper.cli import main as cli_main
    import numpy

    golden = json.loads((BENCH / "golden.json").read_text())
    cycle = build_cycle(args.workload, args.seed, lh)
    replayer = None
    if args.trace:
        from replay import Replayer

        replayer = Replayer(lh, golden)

    records = []  # (op, seconds, problem)
    reference_seconds()  # warms the allocator
    references = [reference_seconds()]  # before the first op and after each
    first_stdout = None
    overheads, replayed_seconds, replay_seconds = [], 0.0, 0.0
    start = time.perf_counter()
    while True:
        for op in cycle:
            t0 = time.perf_counter()
            rc, out, err = invoke(cli_main, op.argv)
            seconds = time.perf_counter() - t0
            references.append(reference_seconds())
            problem = check_op(op, rc, out, golden)
            if problem and err.strip():
                problem += f" ({err.strip().splitlines()[-1]})"
            records.append([op, seconds, problem])
            if first_stdout is None:
                first_stdout = out
            if replayer is not None and problem is None:
                t0 = time.perf_counter()
                try:
                    overheads.append(seconds - replayer.replay(len(records) - 1, op, out))
                except Exception as exc:  # a replay crash is reported, not fatal
                    replayer.problems.append(f"{op.label}: replay raised {exc!r}")
                replay_seconds += time.perf_counter() - t0
                replayed_seconds += seconds
        if time.perf_counter() - start >= args.seconds:
            break
    wall = time.perf_counter() - start

    if args.workload == "girth_mc" and records[0][2] is None:
        _, out, _ = invoke(cli_main, cycle[0].argv)
        if out != first_stdout:
            records[0][2] = "replay is not byte-identical"
    problems = [f"{op.label}: {p}" for op, _, p in records if p]
    if replayer is not None:
        problems += replayer.problems
    rc, _, err = invoke(cli_main, KNOWN_DEFECT)
    known_defect = {"argv": " ".join(KNOWN_DEFECT), "exit": rc,
                    "stderr": err.strip()[-200:]}

    ok_seconds = [s for _, s, p in records if p is None]
    failed = len(records) - len(ok_seconds)
    # Each op's time at reference speed, from the references on either side.
    ok_scaled = [s * REFERENCE_S * 2 / (references[i] + references[i + 1])
                 for i, (_, s, p) in enumerate(records) if p is None]
    raw = {"ops_per_s": len(ok_seconds) / wall,
           "op_p50_s": statistics.median(ok_seconds) if ok_seconds else None,
           "setup_s": setup[0],
           "reference_s": statistics.median(references)}
    if args.trace:
        metrics = layer_metrics(replayer.tracer.spans, overheads, replayed_seconds,
                                replay_seconds)
        units = PER_LAYER
    else:
        metrics = {
            "ops_per_s": len(ok_scaled) / sum(ok_scaled) if ok_scaled else 0.0,
            "op_p50_s": statistics.median(ok_scaled or [s for _, s, _ in records]),
            "setup_s": setup[1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    op_counts: dict[str, int] = {}
    for op, _, _ in records:
        key = " ".join(op.argv[:3])
        op_counts[key] = op_counts.get(key, 0) + 1
    record = {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "workers": 1,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": round(wall, 3),
        "cycle_ops": len(cycle),
        "op_counts": op_counts,
        "loadavg_start": loadavg_start,
        "loadavg_end": os.getloadavg(),
        "known_defect": known_defect,
        "raw": raw,
        "op_seconds": [round(sec, 4) for _, sec, _ in records],
        "problems": problems[:20],
    }
    print(json.dumps({"run_record": record}))
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import the library and build the inputs, then "
                             "print the monotonic clock and the reference time "
                             "(used to time setup)")
    args = parser.parse_args(argv)
    if args.setup_probe:
        build_cycle(args.workload, args.seed, load_library())
        end = monotonic()
        reference_seconds()  # warms the allocator
        print(end, reference_seconds())
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
