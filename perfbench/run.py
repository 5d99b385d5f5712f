"""Benchmark of the ``sgsov`` package.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(``setup_s``, ``op_s``, ``peak_rss_mib``); with ``--trace 1`` the second
call of every round runs under the span tracer of :mod:`tracing` and the
metrics are the per-layer ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_REPEATS = 3
CALLS_PER_ROUND = 2

# a fresh interpreter imports the package and solves one (N, p) = (1, 3) instance
SETUP_CODE = (
    "import sys, sgsov; "
    "sgsov.solve(sgsov.make_params(1, 3, 2, [float(sys.argv[1])], [float(sys.argv[2])]), seed=1)"
)

# traced functions and the span totals reported for each; README.md says
# which end-to-end figure each one should move
LAYER_FUNCTIONS = [
    ("model.embed", ("calls", "self_s")),
    ("yang_baxter.monodromy", ("calls", "self_s")),
    ("averages.compute_grids", ("self_s",)),
    ("spectrum.oracle_spectrum", ("self_s",)),
    ("spectrum.simultaneous_eig", ("self_s",)),
    ("spectrum.q_from_t", ("calls", "self_s")),
    ("sov_basis.diagonalize_b_family", ("calls", "self_s")),
    ("sov_basis.label_vectors", ("self_s",)),
    ("sov_basis.calibrate_scales", ("self_s",)),
    ("observables.form_factor", ("calls", "self_s")),
    ("observables.form_factor_matrix", ("self_s",)),
    ("observables.form_factor_det_scale", ("calls", "self_s")),
    ("observables.build_eigenstate", ("self_s",)),
    ("observables.build_coeigenstate", ("self_s",)),
    ("pipeline.solve", ("s",)),
    ("cli.main", ("self_s",)),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas() -> None:
    """One BLAS thread, through the program's own ``SGSOV_NUM_THREADS``.

    The package copies it into the BLAS variables only where they are
    unset, so they are cleared first; this must run before numpy loads.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.pop(var, None)
    os.environ["SGSOV_NUM_THREADS"] = "1"


def measure_setup(seed: int) -> list[float]:
    """Wall time of fresh processes that import the package and warm up."""
    rng = random.Random(seed)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        couplings = [repr(rng.uniform(0.5, 2.0)) for _ in range(2)]
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, *couplings], cwd=ROOT, env=env,
                       check=True, timeout=120)
        times.append(perf_counter() - t0)
    return times


def measure(workload, rng, seconds: float, tracer=None) -> dict:
    """Run whole rounds until ``seconds`` of wall time have passed.

    A call fails when it raises; a call whose output a check rejects, or
    whose output differs from the first of its round, fails too and makes
    the run incorrect.  Only calls that did not fail are timed into the
    medians.  Under ``tracer`` the second call of each round is traced.
    """
    times = {False: [], True: []}
    stats = {"attempted": 0, "failed": 0, "correct": True, "traced_output_bytes": 0}
    start = perf_counter()
    while True:
        inst = workload.draw(rng)
        results = []
        for k in range(CALLS_PER_ROUND):
            traced = tracer is not None and k == 1
            t0 = perf_counter()
            try:
                if traced:
                    with tracer:
                        raw = workload.call(inst)
                else:
                    raw = workload.call(inst)
                elapsed = perf_counter() - t0
                out = workload.output(inst, raw)
            except Exception:
                traceback.print_exc()
                results.append(None)
                continue
            results.append((out, elapsed, traced))

        first = first_problems = None
        for res in results:
            stats["attempted"] += 1
            if res is None:
                stats["failed"] += 1
                continue
            out, elapsed, traced = res
            if first is None:
                first, first_problems = out, workload.check(inst, out)
                problems = first_problems
            elif out == first:
                problems = first_problems
            else:
                problems = ["output differs from the first call on the same input"]
            if problems:
                print(f"{workload.name}: {'; '.join(problems)}", file=sys.stderr)
                stats["failed"] += 1
                stats["correct"] = False
                continue
            times[traced].append(elapsed)
            if traced:
                stats["traced_output_bytes"] += len(out[1])
        if perf_counter() - start >= seconds:
            break
    stats["untraced_s"], stats["traced_s"] = times[False], times[True]
    return stats


def layer_metrics(tracer, stats) -> dict:
    summary = tracer.summary()
    metrics = {}
    for name, fields in LAYER_FUNCTIONS:
        for field in fields:
            unit = "count" if field == "calls" else "s"
            metrics[f"{name}.{field}"] = {"value": summary[name][field], "unit": unit}
    solves = summary["pipeline.solve"]["calls"]
    passes = tracer.count_within("sov_basis.diagonalize_b_family", "pipeline.solve")
    metrics["pipeline.assemble_passes"] = {
        "value": passes / solves if solves else 0.0, "unit": "passes/solve"}
    metrics["pipeline.useful_pass_ratio"] = {
        "value": solves / passes if passes else 0.0, "unit": "ratio"}
    metrics["cli.command.self_s"] = {
        "value": sum(v["self_s"] for k, v in summary.items() if k.startswith("cli.cmd_")),
        "unit": "s"}
    metrics["cli.output_bytes"] = {"value": stats["traced_output_bytes"], "unit": "bytes"}
    traced, untraced = stats["traced_s"], stats["untraced_s"]
    overhead = statistics.median(traced) - statistics.median(untraced) if traced and untraced else 0.0
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.ops"] = {"value": len(traced), "unit": "count"}
    metrics["trace.spans"] = {"value": len(tracer.start), "unit": "count"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sgsov" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'sgsov'}", file=sys.stderr)
        return 2
    pin_blas()
    setup_times = [] if args.trace else measure_setup(args.seed)

    sys.path.insert(0, str(SRC))
    import sgsov  # after the thread pin, before numpy loads anywhere

    if not Path(sgsov.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: sgsov imported from {sgsov.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    import tracing
    import workloads

    work_dir = RESULTS / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    loads = workloads.make_workloads(work_dir)
    if args.workload not in loads:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(loads)}",
              file=sys.stderr)
        return 2
    workload = loads[args.workload]
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, *workload.name.encode()]))
    workload.warm_up(rng)

    tracer = tracing.Tracer() if args.trace else None
    stats = measure(workload, rng, args.seconds, tracer)
    if not stats["untraced_s"]:
        print(f"perfbench: every call of {workload.name} failed", file=sys.stderr)
        return 1
    if tracer is not None:
        metrics = layer_metrics(tracer, stats)
        tracer.write(RESULTS / f"{workload.name}.trace.npz")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "op_s": {"value": statistics.median(stats["untraced_s"]), "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "unit": "MiB"},
        }
    result = {"correct": stats["correct"], "attempted": stats["attempted"],
              "failed": stats["failed"], "metrics": metrics}
    line = json.dumps(result)
    (RESULTS / f"{workload.name}.trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
