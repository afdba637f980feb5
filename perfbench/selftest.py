"""Self-test of the benchmark at tiny problem sizes.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` names exactly the metrics ``run.py`` emits,
with the same units; runs every workload through ``run.py --tiny`` with and
without tracing and checks the result line of each, plus the ``theory_gap``
and ``error_rate`` of its results file; and checks that the correctness
gate fails a report with a non-finite, an out-of-tolerance or a missing
cell.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import END_TO_END, PER_LAYER, ROOT, declared_metrics
from workloads import WORKLOADS, check_report, overrides

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SEED = 1


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_declared_metrics() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    check(declared_metrics(0) == END_TO_END, f"end_to_end {declared_metrics(0)}")
    for name, unit in declared_metrics(1).items():
        check(PER_LAYER.get(name) == unit, f"per_layer {name} [{unit}] is not computed")
    for w in bench["workloads"]:
        check(w["name"] in WORKLOADS, f"BENCHMARK.json workload {w['name']} is not defined")


def check_run(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    label = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{label} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0,
          f"{label}: gate failed {result['failed']} of {result['attempted']} cells")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label}: attempted {result['attempted']!r}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == declared_metrics(trace), f"{label}: metrics {got}")
    for name, m in result["metrics"].items():
        check(isinstance(m["value"], (int, float)), f"{label}: {name} = {m['value']!r}")
    path = os.path.join(ROOT, ".bench_out", "results", f"{workload}-seed{SEED}-trace{trace}.json")
    with open(path, encoding="utf-8") as f:
        full = json.load(f)
    has_theory = workload != "multiclass"
    check((full["theory_gap"] is not None) == has_theory, f"{label}: theory_gap {full['theory_gap']}")
    check(full["error_rate"] == 0.0, f"{label}: error_rate {full['error_rate']}")
    for line in ("theory_gap", "error_rate", *(PER_LAYER if trace else END_TO_END)):
        check(line in proc.stdout, f"{label}: no printed line for {line}")


def check_gate() -> None:
    """Corrupt the report of the tiny histogram run three ways."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from lpc.experiments import parse_config_file, read_report_csv

    out = os.path.join(ROOT, ".bench_out", "runs", "histogram_highdim")
    cfg = parse_config_file(os.path.join(ROOT, WORKLOADS["histogram_highdim"].config),
                            overrides("histogram_highdim", SEED, out, tiny=True))
    report = os.path.join(out, "report.csv")
    check(check_report(report, cfg, read_report_csv).failed == 0, "clean report fails the gate")
    with open(report, encoding="utf-8") as f:
        header, *rows = f.read().splitlines()
    mutated = os.path.join(ROOT, ".bench_out", "selftest-report.csv")
    first = rows[0].split(",")  # experiment,variant,grid,seed,metric,empirical,theory,gap
    corruptions = {
        "non-finite": [",".join(first[:5] + ["nan"] + first[6:])] + rows[1:],
        "out of tolerance": [",".join(first[:5] + [repr(float(first[6]) + 10.0)] + first[6:])]
                            + rows[1:],
        "missing": rows[1:],
    }
    for name, body in corruptions.items():
        with open(mutated, "w", encoding="utf-8") as f:
            f.write("\n".join([header] + body) + "\n")
        verdict = check_report(mutated, cfg, read_report_csv)
        check(verdict.failed == 1, f"{name} cell: gate counted {verdict.failed} failures")
    os.remove(mutated)


def main() -> int:
    check_declared_metrics()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
            print(f"ok  {workload} --trace {trace}")
    check_gate()
    print("ok  correctness gate")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
