"""Benchmark of the lpc experiment harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is a shipped config under
``configs/``, run the way ``lpc <subcommand> --config configs/<x>.cfg``
runs it: one process, one closed-loop client, the config's own
``threads``.  The benchmark never sets ``OPENBLAS_NUM_THREADS`` or any
other thread variable; it records them, so BLAS threads competing with
the harness's thread pool stay visible.  The seed list of the config is
derived from ``--seed`` (see ``workloads.py``, which also says why
``estimate_noise`` is runnable but not listed in ``BENCHMARK.json``).

``--trace 0`` measures the end-to-end metrics:

- ``wall_s``: wall time of ``run_experiment`` + ``emit_report`` for one
  workload run, median over the timed runs after a warm-up run;
- ``cpu_s``: process CPU time (all threads) over the same span, median;
- ``setup_s``: time from spawning a fresh interpreter to a parsed config
  (``import lpc``, numpy/scipy, BLAS load, config parse), median over
  several interpreters;
- ``peak_rss_mb``: high-water RSS of the process that ran the workload.

``--trace 1`` alternates untraced runs with runs traced by ``tracing.py``
and prints the per-layer metrics of the traced runs (median over runs)
plus ``trace_overhead``, the traced median wall time over the untraced
one, in percent.  The result line carries the subset BENCHMARK.json
declares (see ``PER_LAYER``).

Every run's ``report.csv`` goes through the correctness gate of
``workloads.py``: it must parse, every value must be finite, every expected
cell must be present and, where it has a theory value, lie within a fixed
tolerance; every later run, traced or not, must write a byte-identical
report.  ``attempted`` counts the expected cells of all runs, ``failed``
those that failed; their ratio is printed as ``error_rate``.  The mean
``|empirical - theory|`` of the report's theory cells is printed as
``theory_gap`` (the multiclass experiment has none).  ``theory_gap`` and
``error_rate`` are not bounded metrics: the first varies with the seed by
far more than any bound would allow, the second is 0 on a correct run.

The last line of standard output is the JSON result; the lines before it
name every metric with its unit.  The full result, with the timing
samples and the machine's provenance (cores, BLAS, ``*_NUM_THREADS``,
versions), is written to ``.bench_out/results/``; a traced run also writes
its spans to ``.bench_out/spans/``.  ``python3 perfbench/selftest.py``
checks all of this at tiny sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 5  # interpreters that only set up; the worker's set-up is one more sample
DEADLINE_S = 170.0  # the whole invocation, set-up probes included

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Every per-layer metric the traced run computes.  The result line carries
# those BENCHMARK.json declares; the rest are printed and kept in the
# results file only, because on some declared workload they are a time that
# is 0 by construction (a layer the workload never reaches) or constant.
PER_LAYER = {
    "datasets.calls": "count",
    "datasets.self_s": "s",
    "datasets.mfloats_drawn": "Mfloats",
    "core.calls": "count",
    "core.self_s": "s",
    "core.factor_count": "count",
    "core.factor_s": "s",
    "core.solve_count": "count",
    "core.solve_rhs": "count",
    "core.solve_s": "s",
    "core.loo_fallbacks": "count",
    "theory.calls": "count",
    "theory.self_s": "s",
    "noise.calls": "count",
    "noise.self_s": "s",
    "noise.newton_iters": "count",
    "noise.unconverged": "count",
    "noise.high_residual": "count",
    "multiclass.calls": "count",
    "multiclass.self_s": "s",
    "multiclass.candidates_per_s": "1/s",
    "experiments.self_s": "s",
    "experiments.emit_s": "s",
    "experiments.bytes_written": "bytes",
    "experiments.pool_utilization": "share",
    "trace_overhead": "%",
}


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


class BenchError(Exception):
    pass


def spawn_worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    t_spawn = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args, "--t-spawn", repr(t_spawn)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run(args) -> tuple[dict, list[str]]:
    """Run the workload; return the full result and the lines naming every
    metric."""
    w = WORKLOADS[args.workload]
    for need in ("src/lpc/__init__.py", w.config):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError(f"{need} not found under {ROOT}: not an lpc checkout")
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")

    setups = []
    if not args.trace:
        setups = [spawn_worker(common + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    res = spawn_worker(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
    )
    setups.append(res["setup_s"])

    wall, cpu = res["wall"], res["cpu"]
    lines = [
        f"lpc benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace} seeds={res['seeds']}",
        "machine: " + " ".join(f"{k}={v}" for k, v in res["provenance"].items()),
    ]
    if args.trace:
        traced = res["traced_wall"]
        base = statistics.median(wall)
        metrics = dict(res["layers"])
        metrics["trace_overhead"] = 100.0 * (statistics.median(traced) - base) / base
        for name, unit in PER_LAYER.items():
            lines.append(f"  {name:<30} {metrics[name]:.6g} {unit}")
        lines.append(f"  ({len(traced)} traced, {len(wall)} untraced runs; "
                     f"spans in {res['spans_file']})")
    else:
        metrics = {
            "wall_s": statistics.median(wall),
            "cpu_s": statistics.median(cpu),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        for name, samples in (("wall_s", wall), ("cpu_s", cpu), ("setup_s", setups)):
            q1, q3 = quartiles(samples)
            lines.append(f"  {name:<12} {metrics[name]:.6g} s  median of {len(samples)} "
                         f"(q1 {q1:.6g}, q3 {q3:.6g})")
        lines.append(f"  {'peak_rss_mb':<12} {metrics['peak_rss_mb']:.6g} MB")
    gap = res["theory_gap"]
    lines.append(f"  {'theory_gap':<12} "
                 + ("n/a (no theory cells)" if gap is None else f"{gap:.6g} abs"))
    error_rate = res["failed"] / res["attempted"]
    lines.append(f"  {'error_rate':<12} {error_rate:.6g} ratio  "
                 f"({res['failed']} of {res['attempted']} cells failed)")
    lines += [f"  failure: {e}" for e in res["errors"][:10]]

    full = dict(res, workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, setup_samples=setups, error_rate=error_rate,
                all_metrics=metrics,
                metrics={k: {"value": metrics[k], "unit": u}
                         for k, u in declared_metrics(args.trace).items()})
    return full, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="lpc benchmark", formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        full, lines = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    out = os.path.join(ROOT, ".bench_out", "results")
    os.makedirs(out, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out, name), "w", encoding="utf-8") as f:
        json.dump(full, f, indent=1)
    print("\n".join(lines))
    print(json.dumps({
        "correct": full["failed"] == 0 and not full["errors"],
        "attempted": full["attempted"],
        "failed": full["failed"],
        "metrics": full["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
