#!/usr/bin/env python3
"""pfstab benchmark: three workloads, end-to-end metrics and a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload {search,params,verify} --seed N --seconds S --trace {0,1}

The benchmark imports pfstab from ``src/`` of the checkout it sits in and
builds every input from ``--seed``.  It repeats full passes over the
workload's cases within ``--seconds``, checks every output, and prints a
table of metrics followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones.  With ``--trace 1`` untraced and traced
passes alternate, and the metrics are the per-layer ones (per traced
pass), including the tracing overhead.

Everything runs serially in this process; BLAS is pinned to one thread.
Set-up time is measured by running the set-up alone in a few fresh
interpreters, one after another, and taking the median.

The speed of a shared host drifts (on the 2-vCPU host this benchmark was
defined on, by up to +-25% over tens of seconds), far more than the
regressions the bounds should catch.  So every end-to-end time is scaled
to the host's nominal speed: a fixed reference computation of about 9 ms
that does not touch pfstab runs in the gaps before, between and after the
cases, at least ``REFERENCE_SAMPLES`` times a pass, and each pass's times
are multiplied by ``REFERENCE_S / median(reference times in that pass)``.
The report prints the raw times and the speed factors next to the scaled
values.
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
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
SETUP_PROBES = 3
# Reference-kernel samples per pass, spread over the gaps around the cases.
REFERENCE_SAMPLES = 15
# Median time of reference_kernel() on the host the benchmark was defined on.
REFERENCE_S = 0.0086

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten samples beyond it.

    With ten samples or fewer no percentile has ten beyond it, and the
    maximum is reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def reference_kernel() -> float:
    """Time one fixed mix of small integer matrix products and dict work, independent of pfstab."""
    import numpy as np

    start = time.perf_counter()
    a = np.arange(144, dtype=np.int64).reshape(12, 12) % 7
    acc = 0
    for i in range(400):
        b = (a @ a) % 7
        counts = {}
        for j, x in enumerate(b[i % 12].tolist()):
            counts[(x, j)] = counts.get((x, j), 0) + i
        acc += sum(counts.values()) % 11
        a = np.roll(b, 1, axis=0)
    return time.perf_counter() - start


def run_passes(cases, seconds: float, tracer=None) -> dict:
    """Repeat full passes over the cases within ``seconds`` (at least one pass).

    A pass starts only if the previous one, checks included, would still
    fit, so a run's length stays near ``seconds`` however fast the program is.
    Each pass also times the reference kernel, spread over the gaps before,
    between and after its cases, and records its speed factor.
    """
    times = {case.name: [] for case in cases}
    walls, speeds, attempted, failures = [], [], 0, []
    per_gap = -(-REFERENCE_SAMPLES // (len(cases) + 1))
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        wall = 0.0
        reference = []
        for case in cases:
            reference += [reference_kernel() for _ in range(per_gap)]
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    output = case.run()
                else:
                    with tracer.record():
                        output = case.run()
                error = None
            except Exception as exc:  # a raising operation counts as failed
                output, error = None, exc
            elapsed = time.perf_counter() - t0
            wall += elapsed
            times[case.name].append(elapsed)
            attempted += 1
            if error is None:
                try:
                    ok = bool(case.check(output))
                except Exception as exc:
                    ok, error = False, exc
            if error is not None or not ok:
                detail = f"raised {error!r}" if error is not None else f"wrong output {output!r}"[:300]
                failures.append(f"{case.name}: {detail}")
        reference += [reference_kernel() for _ in range(per_gap)]
        walls.append(wall)
        speeds.append(REFERENCE_S / statistics.median(reference))
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return {"times": times, "walls": walls, "speeds": speeds, "attempted": attempted, "failures": failures}


def setup_probe_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up seconds, speed factor) of fresh interpreters run one at a time.

    Set-up is importing pfstab and building the workload's inputs.
    """
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        seconds, speed = proc.stdout.split()[-2:]
        out.append((float(seconds), float(speed)))
    return out


def end_to_end(result: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metrics, every time scaled by the speed factor of its own pass."""
    speeds = result["speeds"]
    passes = len(speeds)
    case_ms = [statistics.median(t * f for t, f in zip(v, speeds)) * 1e3 for v in result["times"].values()]
    raw_case_ms = [statistics.median(v) * 1e3 for v in result["times"].values()]
    tail_ms, pct = tail(case_ms)
    metrics = {
        "wall_s": statistics.median(w * f for w, f in zip(result["walls"], speeds)),
        "op_p50_ms": statistics.median(case_ms),
        "op_tail_ms": tail_ms,
        "setup_s": statistics.median(t * f for t, f in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    per_case = f"{len(case_ms)} cases, each the median of {passes} passes"
    samples = {
        "wall_s": f"median of {passes} passes; raw {statistics.median(result['walls']):.4g} s, "
                  f"speed factors {min(speeds):.3f}..{max(speeds):.3f}",
        "op_p50_ms": f"median over {per_case}; raw {statistics.median(raw_case_ms):.4g} ms",
        "op_tail_ms": f"p{pct:.1f} over {per_case}" + (" (max: 10 cases or fewer)" if pct == 100.0 else "")
        + f"; raw {tail(raw_case_ms)[0]:.4g} ms",
        "setup_s": f"median of {len(setup)} fresh-interpreter set-ups; raw {statistics.median(t for t, _ in setup):.4g} s",
        "peak_rss_mb": "1 process",
    }
    return metrics, samples


def print_report(args, metrics: dict, units: dict, samples: dict, result: dict, correct: bool) -> None:
    import numpy

    print(f"pfstab benchmark  workload={args.workload}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    print(f"machine: nproc={os.cpu_count()}  python={platform.python_version()}  numpy={numpy.__version__}  "
          f"BLAS threads=1  platform={platform.platform()}")
    print(f"{'metric':<32} {'value':>16}  {'unit':<6} samples")
    for name, value in metrics.items():
        print(f"{name:<32} {value:>16.6g}  {units[name]:<6} {samples.get(name, '')}")
    print(f"operations: attempted={result['attempted']}  failed={len(result['failures'])}  "
          f"failed_frac={len(result['failures']) / result['attempted']:.6g}  correct={correct}")
    for line in result["failures"][:20]:
        print(f"  FAILED {line}")
    layers = {name[: -len(".self_s")]: v for name, v in metrics.items() if name.endswith(".self_s")}
    if layers:
        total = sum(layers.values()) or 1.0
        ranked = sorted(layers.items(), key=lambda item: -item[1])
        print("self-time share: " + "  ".join(f"{layer} {v / total:.1%}" for layer, v in ranked))
    import workloads

    print("excluded on purpose:")
    for case, reason in workloads.EXCLUDED.items():
        print(f"  {case}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("search", "params", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pfstab" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no pfstab sources (src/pfstab, tests/oracles.py) under {ROOT}", file=sys.stderr)
        return 2

    if args.setup_probe:
        start = time.perf_counter()
        import workloads

        workloads.setup(args.workload, args.seed, WORKDIR)
        elapsed = time.perf_counter() - start
        print(elapsed, REFERENCE_S / statistics.median(reference_kernel() for _ in range(9)))
        return 0

    setup = setup_probe_seconds(args.workload, args.seed)
    import pfstab
    import workloads

    if not Path(pfstab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: pfstab was imported from {pfstab.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    cases = workloads.setup(args.workload, args.seed, WORKDIR)

    if args.trace == 0:
        result = run_passes(cases, args.seconds)
        metrics, samples = end_to_end(result, setup)
        units = END_TO_END
    else:
        from spans import PER_LAYER, Tracer, per_layer

        # Untraced and traced passes alternate, and each pass is scaled by its
        # speed factor, so drift in host speed stays out of the overhead ratio.
        tracer = Tracer()
        untraced, traced, failures, attempted = [], [], [], 0
        start = time.perf_counter()
        while True:
            pair_start = time.perf_counter()
            plain = run_passes(cases, 0)
            with tracer:
                recorded = run_passes(cases, 0, tracer)
            untraced += [w * f for w, f in zip(plain["walls"], plain["speeds"])]
            traced += [w * f for w, f in zip(recorded["walls"], recorded["speeds"])]
            failures += plain["failures"] + recorded["failures"]
            attempted += plain["attempted"] + recorded["attempted"]
            now = time.perf_counter()
            if now - start + (now - pair_start) > args.seconds:
                break
        overhead = statistics.median(traced) / statistics.median(untraced) - 1
        metrics = per_layer(tracer.summary(), len(traced), overhead)
        tracer.write(WORKDIR / f"spans-{args.workload}-seed{args.seed}.npz")
        units = PER_LAYER
        samples = {name: f"per traced pass, {len(traced)} passes" for name in metrics}
        samples["trace.overhead_frac"] = (
            f"median traced pass / median untraced pass - 1, {len(traced)} alternating pairs, speed-scaled"
        )
        result = {"attempted": attempted, "failures": failures}

    correct = not result["failures"]
    print_report(args, metrics, units, samples, result, correct)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
