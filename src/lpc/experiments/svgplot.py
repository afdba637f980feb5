"""Minimal SVG line/histogram plots with no plotting dependency.

Each figure is a standalone SVG file; the plotted numbers are embedded in
an XML comment so the file doubles as a (diffable) data record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["Figure"]

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
]

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 20, 40, 56


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * max(abs(lo), abs(hi), 1.0):
        out.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return out


@dataclass
class _Series:
    kind: str  # "line" | "bars"
    xs: list[float]
    ys: list[float]
    label: str
    color: str
    dashed: bool = False
    markers: bool = False
    bar_width: float = 0.0


@dataclass
class Figure:
    """Accumulates series, renders a self-contained SVG string."""

    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    _series: list[_Series] = field(default_factory=list)
    _color_i: int = 0

    def _next_color(self, color: str | None) -> str:
        if color is not None:
            return color
        c = _PALETTE[self._color_i % len(_PALETTE)]
        self._color_i += 1
        return c

    def line(self, xs, ys, label: str = "", color: str | None = None,
             dashed: bool = False, markers: bool = False) -> None:
        xs = [float(v) for v in xs]
        ys = [float(v) for v in ys]
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have equal length")
        self._series.append(
            _Series("line", xs, ys, label, self._next_color(color), dashed, markers)
        )

    def bars(self, centers, heights, width: float, label: str = "",
             color: str | None = None) -> None:
        self._series.append(
            _Series(
                "bars",
                [float(v) for v in centers],
                [float(v) for v in heights],
                label,
                self._next_color(color),
                bar_width=float(width),
            )
        )

    def _limits(self) -> tuple[float, float, float, float]:
        xs, ys = [], []
        for s in self._series:
            half = s.bar_width / 2.0
            xs.extend([min(s.xs) - half, max(s.xs) + half])
            ys.extend(s.ys)
            if s.kind == "bars":
                ys.append(0.0)
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        if x_hi == x_lo:
            x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
        if y_hi == y_lo:
            y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
        pad = 0.05 * (y_hi - y_lo)
        return x_lo, x_hi, y_lo - pad, y_hi + pad

    def render(self) -> str:
        if not self._series:
            raise ValueError("nothing to plot")
        x_lo, x_hi, y_lo, y_hi = self._limits()
        plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
        plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

        def sx(x: float) -> float:
            return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

        def sy(y: float) -> float:
            return _MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
            f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif">',
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        ]
        # embedded data table
        out.append("<!-- data")
        for s in self._series:
            out.append(f"series\t{s.label or s.kind}")
            out.append("x\t" + "\t".join(_fmt(v) for v in s.xs))
            out.append("y\t" + "\t".join(_fmt(v) for v in s.ys))
        out.append("-->")

        # axes and ticks
        ax_b, ax_l = sy(y_lo), sx(x_lo)
        out.append(
            f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
            'fill="none" stroke="#333" stroke-width="1"/>'
        )
        for t in _ticks(x_lo, x_hi):
            px = sx(t)
            out.append(
                f'<line x1="{px:.1f}" y1="{ax_b:.1f}" x2="{px:.1f}" y2="{ax_b + 5:.1f}" stroke="#333"/>'
            )
            out.append(
                f'<text x="{px:.1f}" y="{ax_b + 18:.1f}" font-size="11" text-anchor="middle">{_fmt(t)}</text>'
            )
        for t in _ticks(y_lo, y_hi):
            py = sy(t)
            out.append(
                f'<line x1="{ax_l - 5:.1f}" y1="{py:.1f}" x2="{ax_l:.1f}" y2="{py:.1f}" stroke="#333"/>'
            )
            out.append(
                f'<text x="{ax_l - 8:.1f}" y="{py + 4:.1f}" font-size="11" text-anchor="end">{_fmt(t)}</text>'
            )
            out.append(
                f'<line x1="{ax_l:.1f}" y1="{py:.1f}" x2="{sx(x_hi):.1f}" y2="{py:.1f}" '
                'stroke="#ddd" stroke-width="0.5"/>'
            )

        for s in self._series:
            if s.kind == "bars":
                half = s.bar_width / 2.0
                y0 = sy(max(0.0, y_lo))
                for cx, h in zip(s.xs, s.ys):
                    x_px, y_px = sx(cx - half), sy(h)
                    out.append(
                        f'<rect x="{x_px:.1f}" y="{min(y_px, y0):.1f}" '
                        f'width="{sx(cx + half) - x_px:.1f}" height="{abs(y0 - y_px):.1f}" '
                        f'fill="{s.color}" fill-opacity="0.45" stroke="none"/>'
                    )
            else:
                pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(s.xs, s.ys))
                dash = ' stroke-dasharray="6,4"' if s.dashed else ""
                out.append(
                    f'<polyline points="{pts}" fill="none" stroke="{s.color}" stroke-width="1.6"{dash}/>'
                )
                if s.markers:
                    for x, y in zip(s.xs, s.ys):
                        out.append(
                            f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="{s.color}"/>'
                        )

        # title, axis labels and legend
        if self.title:
            out.append(
                f'<text x="{_WIDTH / 2:.0f}" y="24" font-size="14" text-anchor="middle">{self.title}</text>'
            )
        if self.xlabel:
            out.append(
                f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_HEIGHT - 14}" font-size="12" '
                f'text-anchor="middle">{self.xlabel}</text>'
            )
        if self.ylabel:
            cy = _MARGIN_T + plot_h / 2
            out.append(
                f'<text x="18" y="{cy:.0f}" font-size="12" text-anchor="middle" '
                f'transform="rotate(-90 18 {cy:.0f})">{self.ylabel}</text>'
            )
        ly = _MARGIN_T + 12
        for s in self._series:
            if not s.label:
                continue
            lx = _MARGIN_L + plot_w - 150
            out.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                f'stroke="{s.color}" stroke-width="2"'
                + (' stroke-dasharray="6,4"' if s.dashed else "")
                + "/>"
            )
            out.append(f'<text x="{lx + 28}" y="{ly}" font-size="11">{s.label}</text>')
            ly += 16
        out.append("</svg>")
        return "\n".join(out) + "\n"
