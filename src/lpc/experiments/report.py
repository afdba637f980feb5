"""Long-format run reports and deterministic file emission."""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import ExperimentConfig

__all__ = ["ReportRow", "RunReport", "emit_report", "read_report_csv"]

CSV_COLUMNS = ("experiment", "variant", "grid_value", "seed", "metric",
               "empirical", "theory", "gap")


@dataclass(frozen=True)
class ReportRow:
    """One (variant, grid point, seed, metric) measurement.

    ``theory`` is ``None`` for cells where no theoretical counterpart
    exists (multiclass accuracies, solver diagnostics); those emit with an
    empty theory/gap column.
    """

    variant: str
    grid_value: float
    seed: int
    metric: str
    empirical: float
    theory: float | None = None

    @property
    def gap(self) -> float | None:
        if self.theory is None:
            return None
        return abs(self.empirical - self.theory)


@dataclass
class RunReport:
    config: ExperimentConfig
    rows: list[ReportRow] = field(default_factory=list)
    figure_svg: str = ""
    extra_files: dict[str, str] = field(default_factory=dict)

    def add(self, variant: str, grid_value: float, seed: int, metric: str,
            empirical: float, theory: float | None = None) -> None:
        self.rows.append(
            ReportRow(variant, float(grid_value), int(seed), metric,
                      float(empirical), None if theory is None else float(theory))
        )
        self.__dict__.pop("_by_cell", None)

    @cached_property
    def _by_cell(self) -> dict[tuple, list[ReportRow]]:
        """The rows by ``(variant, metric, grid_value)``, and over every grid
        value by ``(variant, metric, None)``, in row order: one pass over
        ``rows``, made at the first query after the last :meth:`add`."""
        by_cell: dict[tuple, list[ReportRow]] = {}
        for r in self.rows:
            for g in (r.grid_value, None):
                by_cell.setdefault((r.variant, r.metric, g), []).append(r)
        return by_cell

    def cells(self, variant: str, metric: str, grid_value: float | None = None) -> list[ReportRow]:
        """The rows of ``variant`` and ``metric`` at ``grid_value`` (``None``:
        at every grid value), in row order."""
        return self._by_cell.get((variant, metric, grid_value), [])

    def mean_over_seeds(self, variant: str, metric: str, grid_value: float | None = None):
        return float(np.mean([r.empirical for r in self.cells(variant, metric, grid_value)]))

    def theory_value(self, variant: str, metric: str, grid_value: float | None = None):
        """Mean theory cell over seeds (it differs per seed when the theory
        inputs do, e.g. the class proportion of a random real-data split)."""
        vals = [r.theory for r in self.cells(variant, metric, grid_value) if r.theory is not None]
        if not vals:
            raise KeyError(f"no theory cell for ({variant}, {metric}, {grid_value})")
        return float(np.mean(vals))

    def provenance_lines(self) -> list[str]:
        """Package versions and the machine facts ``report.csv`` bytes can
        depend on: the BLAS build, the CPUs this process may run on (they
        bound the default BLAS thread count) and every ``*_NUM_THREADS``
        variable.  They are comment lines, so ``config.echo`` stays a config."""
        import lpc

        config = getattr(np.__config__, "CONFIG", None)  # absent in older builds
        blas = "unknown"
        if config is not None:
            dep = config["Build Dependencies"]["blas"]
            blas = f"{dep.get('name')} {dep.get('version')}"
        threads_env = ",".join(f"{k}={v}" for k, v in sorted(os.environ.items())
                               if k.endswith("_NUM_THREADS"))
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        return [
            f"# lpc_version = {lpc.__version__}",
            f"# numpy_version = {np.__version__}",
            f"# numpy_blas = {blas}",
            f"# cpus_allowed = {cpus}",
            f"# num_threads_env = {threads_env}",
        ]


def _csv_text(report: RunReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    ordered = sorted(
        report.rows, key=lambda r: (r.variant, r.grid_value, r.seed, r.metric)
    )
    for r in ordered:
        writer.writerow(
            [
                report.config.experiment,
                r.variant,
                repr(r.grid_value),
                r.seed,
                r.metric,
                repr(r.empirical),
                "" if r.theory is None else repr(r.theory),
                "" if r.gap is None else repr(r.gap),
            ]
        )
    return buf.getvalue()


def emit_report(report: RunReport, out_dir) -> list[str]:
    """Write ``report.csv``, ``config.echo`` and ``plot.svg`` (plus any extra
    files) under ``out_dir``.  Byte-deterministic for identical inputs."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def write(name: str, text: str) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        written.append(path)

    write("report.csv", _csv_text(report))
    write(
        "config.echo",
        "\n".join(report.config.echo_lines() + report.provenance_lines()) + "\n",
    )
    if report.figure_svg:
        write("plot.svg", report.figure_svg)
    for name, text in sorted(report.extra_files.items()):
        write(name, text)
    return written


def read_report_csv(path) -> list[dict]:
    """Parse a ``report.csv`` back into typed row dicts (self-parse check)."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected columns {reader.fieldnames}")
        out = []
        for row in reader:
            out.append(
                {
                    "experiment": row["experiment"],
                    "variant": row["variant"],
                    "grid_value": float(row["grid_value"]),
                    "seed": int(row["seed"]),
                    "metric": row["metric"],
                    "empirical": float(row["empirical"]),
                    "theory": float(row["theory"]) if row["theory"] else None,
                    "gap": float(row["gap"]) if row["gap"] else None,
                }
            )
    return out
