"""One benchmark process: set up as ``lpc <subcommand> --config`` does, then
run one workload closed-loop (one client, each run starts when the previous
one has ended) for a fixed time.

Started by ``run.py``, which passes the wall-clock time at which it spawned
this interpreter (``--t-spawn``), so set-up time includes interpreter
start.  Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import sys
import time
import warnings

from workloads import WORKLOADS, check_report, expected_cells, overrides

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")

MIN_RUNS = 3  # timed runs per mode, even when one run outlasts --seconds
LOO_FALLBACK_WARNING = "loo downdate denominator degenerate"


def setup(workload: str, seed: int, tiny: bool, t_spawn: float):
    """Import ``lpc`` from the checkout (numpy, scipy and BLAS load with it)
    and parse the workload's config, as the CLI does before running."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import lpc
    from lpc import experiments

    if not os.path.abspath(lpc.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported lpc from {lpc.__file__}, not from {src}")
    out = os.path.join(OUT, "runs", workload)
    cfg = experiments.parse_config_file(
        os.path.join(ROOT, WORKLOADS[workload].config),
        overrides(workload, seed, out, tiny),
    )
    return experiments, cfg, time.time() - t_spawn


def provenance(cfg) -> dict:
    import numpy
    import scipy

    def blas(module):
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "config_threads": cfg.threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Session:
    """The runs of one workload in this process and what the gate found."""

    def __init__(self, experiments, cfg, tracer):
        self.ex = experiments
        self.cfg = cfg
        self.tracer = tracer
        self.report_path = os.path.join(cfg.resolved_out(), "report.csv")
        self.reference: bytes | None = None  # report.csv of the first run
        self.verdict = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.raised = False
        self.loo_fallbacks: dict[int, int] = {}
        self.runs = 0

    def run(self, traced: bool = False) -> tuple[float, float]:
        """One workload run: ``run_experiment`` + ``emit_report``.  Returns
        wall and process CPU seconds, then checks the report."""
        cfg, ex = self.cfg, self.ex
        self.runs += 1
        if os.path.exists(self.report_path):
            os.remove(self.report_path)
        error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if traced:
                self.tracer.run = self.runs
                self.tracer.install()
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                if traced:
                    report = self.tracer.call("experiments.run_experiment", "experiments",
                                              ex.run_experiment, (cfg,), {})
                    self.tracer.call("experiments.emit_report", "experiments",
                                     ex.emit_report, (report, cfg.resolved_out()), {})
                else:
                    ex.emit_report(ex.run_experiment(cfg), cfg.resolved_out())
            except Exception as exc:  # a failing run is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if traced:
                self.tracer.uninstall()
        self.loo_fallbacks[self.runs] = sum(
            LOO_FALLBACK_WARNING in str(w.message) for w in caught
        )
        self._check(error, traced)
        return wall, cpu

    def _check(self, error: str | None, traced: bool) -> None:
        expected = len(expected_cells(self.cfg))
        self.attempted += expected
        if error is not None:
            self.raised = True
            self.failed += expected
            self.errors.append(f"run {self.runs} raised {error}")
            return
        with open(self.report_path, "rb") as f:
            data = f.read()
        if self.reference is None:
            self.reference = data
            self.verdict = check_report(self.report_path, self.cfg, self.ex.read_report_csv)
            self.errors += self.verdict.problems
        if data == self.reference:
            self.failed += self.verdict.failed
        else:
            self.failed += expected
            kind = "traced run" if traced else "run"
            self.errors.append(f"{kind} {self.runs}: report.csv differs from the first run's")


def measure(session: Session, seconds: float, trace: bool) -> dict:
    """Warm up with one untraced run, then time runs until ``seconds`` have
    passed.  With ``trace``, traced and untraced runs alternate.  A run
    that raises ends the measurement."""
    warm_up = session.run()
    modes = [True, False] if trace else [False]
    samples = {mode: [] for mode in modes}
    start = time.perf_counter()
    for i in itertools.count():
        if session.raised or (
            time.perf_counter() - start >= seconds
            and all(len(s) >= MIN_RUNS for s in samples.values())
        ):
            break
        mode = modes[i % len(modes)]
        samples[mode].append(session.run(traced=mode))
    if not samples[False]:
        samples[False].append(warm_up)
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    experiments, cfg, setup_s = setup(args.workload, args.seed, args.tiny, args.t_spawn)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:  # imported only here, so set-up loads what lpc loads
        from tracing import Tracer, layer_metrics, span_records

        tracer = Tracer()
    session = Session(experiments, cfg, tracer)
    samples = measure(session, args.seconds, bool(args.trace))
    result = {
        "setup_s": setup_s,
        "seeds": list(cfg.seeds),
        "runs": session.runs,
        "attempted": session.attempted,
        "failed": session.failed,
        "errors": session.errors,
        "theory_gap": session.verdict.theory_gap if session.verdict else None,
        "wall": [w for w, _ in samples[False]],
        "cpu": [c for _, c in samples[False]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(cfg),
    }
    if tracer is not None:
        result["traced_wall"] = [w for w, _ in samples[True]]
        result["layers"] = layer_metrics(tracer.spans, session.loo_fallbacks)
        spans_path = os.path.join(OUT, "spans", f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump(span_records(tracer.spans), f)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
