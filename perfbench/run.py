"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-oneshot-gemm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each run sets the workload up several times (the median is ``setup_s``),
then repeats it for ``--seconds`` seconds of wall time with the estimate
cache emptied before every repetition, checks the program's outputs, and
prints as its last line a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` repeats the workload untraced, then
traced, for half of ``--seconds`` each, and reports the per-layer
metrics.  The line before it is a JSON ``detail`` object (provenance,
sample counts, percentile levels, failure reasons); spans and the
serving trace are written under ``.perfbench-out/``.  ``--workload all``
runs every workload, each in a fresh process.  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("serve-oneshot-gemm", "serve-stream-mixed", "paper-cycle-sim")
#: Fewest set-ups per run, and the least time they take together;
#: ``setup_s`` is their median.
SETUPS = 5
SETUP_SECONDS = 6.0
#: Fewest timed repetitions per phase, whatever ``--seconds`` says.
MIN_REPS = 3


def git_commit(root: Path) -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance() -> dict[str, object]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = "unknown"
    env = (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "REPRO_ESTIMATE_CACHE_CAPACITY",
        "REPRO_ESTIMATE_STORE",
    )
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "environment": {name: os.environ.get(name) for name in env},
        "blas": blas,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(ROOT),
        "estimate_cache": "emptied before every timed repetition",
    }


def make_workload(name: str):
    from perfbench.paper import PaperWorkload
    from perfbench.serving import workloads

    if name == PaperWorkload.name:
        return PaperWorkload()
    return workloads(OUT_DIR)[name]


def measure(workload, state, recorder, traced, seconds, outcome, guard, check):
    """Repeat the workload for ``seconds`` (at least :data:`MIN_REPS` times).

    Returns the repetitions, the spans of the first one (traced runs) and
    the layer metrics the output check measured (when ``check``).
    """
    from perfbench.stats import Rep

    label = "traced" if traced else "untraced"
    reps: list[Rep] = []
    first_spans = []
    check_layers: dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        gc.collect()
        rep = workload.run(state, recorder, traced)
        outcome.attempt(rep.operations, rep.completed)
        guard.observe(f"{label} repetition {len(reps) + 1}", rep.sim)
        if traced:
            rep_spans = recorder.take()
            rep.layers.update(workload.span_layers(rep_spans))
            first_spans = first_spans or rep_spans
        if check and not reps:
            paused = time.perf_counter()
            check_layers = workload.check(state, rep, outcome)
            deadline += time.perf_counter() - paused
        rep.payload = None
        reps.append(rep)
    return reps, first_spans, check_layers


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict):
    from perfbench.spans import NullRecorder, SpanRecorder, self_times
    from perfbench.stats import DeterminismGuard, Outcome, median, rate_wall

    workload = make_workload(name)
    outcome = Outcome()
    guard = DeterminismGuard(outcome)
    recorder = SpanRecorder() if trace else NullRecorder()
    setup_s = []
    state = None
    with ExitStack() as stack:
        if trace:
            workload.setup_spans_patch(stack, recorder)
        setup_end = time.perf_counter() + SETUP_SECONDS
        while len(setup_s) < SETUPS or time.perf_counter() < setup_end:
            state = None
            gc.collect()
            start = time.perf_counter()
            state = workload.setup(seed, recorder)
            setup_s.append(time.perf_counter() - start)
    setup_spans = recorder.take() if trace else []

    # A traced run splits its time between untraced and traced repetitions.
    phase_s = seconds / 2 if trace else seconds
    untraced, _, check_layers = measure(
        workload, state, NullRecorder(), False, phase_s, outcome, guard, check=not trace
    )
    wall = rate_wall(untraced)
    e2e = {
        "setup_s": median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs_per_s": min(rep.completed for rep in untraced) / wall,
        "sim_macs_per_s": min(rep.macs for rep in untraced) / wall,
    }
    sim = untraced[0].sim
    for key in ("sim_makespan_cycles", "sim_latency_p50_cycles", "sim_latency_p99_cycles"):
        e2e[key] = float(sim[key])
    host = {key: median([rep.host[key] for rep in untraced]) for key in untraced[0].host}
    detail: dict[str, object] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(),
        "setup_samples_s": setup_s,
        "untraced_rep_walls_s": [rep.wall_s for rep in untraced],
        "untraced_rep_steal_s": [rep.steal_s for rep in untraced],
        "rate_wall_s": wall,
        "sim_latency_p99_cycles": sim["sim_latency_tail"],
        "deadline_hit_rate": sim.get("deadline_hit_rate"),
        "paper_traffic_err_pct": sim.get("paper_traffic_err_pct"),
        **host,
    }

    if not trace:
        metrics = e2e
        declared = spec["end_to_end"]
    else:
        traced, first_spans, check_layers = measure(
            workload, state, recorder, True, phase_s, outcome, guard, check=True
        )
        names = set().union(*(rep.layers for rep in traced))
        metrics = {key: median([rep.layers[key] for rep in traced]) for key in names}
        metrics.update(workload.setup_layers(state, setup_spans, len(setup_s)))
        metrics.update(check_layers)
        metrics.update(host)
        untraced_wall = median([rep.wall_s for rep in untraced])
        traced_wall = median([rep.wall_s for rep in traced])
        metrics["bench.trace_overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
        detail["traced_rep_walls_s"] = [rep.wall_s for rep in traced]
        detail["self_time_s"] = self_times(first_spans)
        declared = spec["per_layer"]
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{name}-spans.json"
        spans_path.write_text(
            json.dumps(
                {
                    "setup": [span._asdict() for span in setup_spans],
                    "first_traced_repetition": [span._asdict() for span in first_spans],
                }
            )
        )
        detail["spans"] = str(spans_path.relative_to(ROOT))

    declared_names = [metric["name"] for metric in declared]
    unknown = sorted(set(metrics) - set(declared_names))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    missing = [metric for metric in declared_names if metric not in metrics]
    if missing and not trace:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    # A layer the workload never calls reports 0 and is listed here.
    detail["layers_not_exercised"] = missing
    detail["failed_share"] = outcome.failed_share
    detail["failures"] = outcome.reasons[:20]
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric["name"]: {"value": float(metrics.get(metric["name"], 0.0)), "unit": metric["unit"]}
            for metric in declared
        },
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            command = [sys.executable, __file__, "--workload", name,
                       "--seed", str(args.seed), "--trace", str(args.trace)]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            returncode = subprocess.run(command, check=False).returncode
            status = status or returncode
        return status

    source = ROOT / "src" / "repro" / "__init__.py"
    spec_path = ROOT / "BENCHMARK.json"
    if not source.is_file() or not spec_path.is_file():
        print(f"perfbench: {source} or {spec_path} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    result, detail = run_workload(args.workload, args.seed, seconds, bool(args.trace), spec)
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
