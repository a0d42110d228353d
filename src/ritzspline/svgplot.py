"""Minimal self-contained SVG plots: no plotting library in the contract.

Two layouts: log-log convergence plots with reference-slope triangles and
base-2 ticks on the h axis, and a per-mode eigenvalue-error plot with the
predicted resolution cutoff marked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 40, 55

PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
]


@dataclass(frozen=True)
class Series:
    label: str
    xs: list[float]
    ys: list[float]


def _log_range(values: list[float]) -> tuple[float, float]:
    logs = [math.log10(v) for v in values if v > 0]
    if not logs:
        return -1.0, 1.0
    lo, hi = min(logs), max(logs)
    if hi - lo < 1e-9:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Canvas:
    def __init__(self, title: str, xlabel: str, ylabel: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" font-size="14">{_esc(title)}</text>',
            f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2}" y="{HEIGHT - 12}" '
            f'text-anchor="middle">{_esc(xlabel)}</text>',
            f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {(MARGIN_T + HEIGHT - MARGIN_B) / 2})">{_esc(ylabel)}</text>',
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
            f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="black"/>',
        ]

    def line(self, x1, y1, x2, y2, stroke="black", dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}" stroke-width="1.0"{d}/>'
        )

    def series(self, points, color):
        """A polyline through two or more (x, y) points, then a dot on each;
        each point is written by one ``%`` template."""
        if len(points) >= 2:
            pts = " ".join(map("%.2f,%.2f".__mod__, points))
            self.parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        self.parts += map(f'<circle cx="%.2f" cy="%.2f" r="3" fill="{color}"/>'.__mod__, points)

    def decade_ticks(self, py, ylo, yhi):
        """A tick and label on the y axis at each power of ten in [ylo, yhi]
        (log10 units), placed by ``py``."""
        for e in range(math.floor(ylo), math.ceil(yhi) + 1):
            if ylo <= e <= yhi:
                self.line(MARGIN_L - 4, py(e), MARGIN_L, py(e))
                self.text(MARGIN_L - 8, py(e) + 4, f"1e{e}", anchor="end")

    def polygon(self, points):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        self.parts.append(
            f'<polygon points="{pts}" fill="none" stroke="black" stroke-width="1"/>'
        )

    def text(self, x, y, s, anchor="start", size=12, color="black"):
        self.parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" '
            f'font-size="{size}" fill="{color}">{_esc(s)}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _mapper(lo: float, hi: float, pix_lo: float, pix_hi: float):
    """Pixel coordinate of a value."""
    span = hi - lo

    def to_pix(v_log: float) -> float:
        return pix_lo + (v_log - lo) / span * (pix_hi - pix_lo)

    return to_pix


def loglog_plot(series: list[Series], title: str, triangle_orders: list[float]) -> str:
    """Log-log plot of error against h, with base-2 x ticks and
    reference-slope triangles."""
    xs_all = [x for s in series for x in s.xs]
    ys_all = [y for s in series for y in s.ys if y > 0]
    if not ys_all:
        ys_all = [1e-16, 1.0]
    xlo, xhi = _log_range(xs_all)
    ylo, yhi = _log_range(ys_all)
    cv = _Canvas(title, "h", "error")
    px = _mapper(xlo, xhi, MARGIN_L, WIDTH - MARGIN_R)
    py = _mapper(ylo, yhi, HEIGHT - MARGIN_B, MARGIN_T)

    # x ticks at the powers of two present in the data
    for x in sorted(set(xs_all)):
        e = math.log2(x)
        label = f"2^{e:.0f}" if abs(e - round(e)) < 1e-9 else f"{x:.3g}"
        cv.line(px(math.log10(x)), HEIGHT - MARGIN_B, px(math.log10(x)), HEIGHT - MARGIN_B + 4)
        cv.text(px(math.log10(x)), HEIGHT - MARGIN_B + 16, label, anchor="middle")
    cv.decade_ticks(py, ylo, yhi)

    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        cv.series([(px(math.log10(x)), py(math.log10(y))) for x, y in zip(s.xs, s.ys) if y > 0],
                  color)
        cv.text(WIDTH - MARGIN_R + 10, MARGIN_T + 16 + 18 * idx, s.label, color=color)

    # slope triangles anchored under the last segment of the first series
    if triangle_orders and series and len(series[0].xs) >= 2:
        x1, x0 = series[0].xs[-1], series[0].xs[-2]
        base_y = min(ys_all)
        for t_idx, order in enumerate(triangle_orders):
            lx0, lx1 = math.log10(x0), math.log10(x1)
            ly0 = math.log10(base_y) + 0.35 * (t_idx + 1)
            ly1 = ly0 - order * (lx0 - lx1)
            tri = [
                (px(lx0), py(ly0)),
                (px(lx1), py(ly0)),
                (px(lx1), py(ly1)),
            ]
            cv.polygon(tri)
            cv.text(px(lx1) + 5, py((ly0 + ly1) / 2), f"{order:g}", size=11)
    return cv.render()


def spectrum_plot(
    rel_errors: list[float],
    predicted_cutoff: int,
    threshold: float,
    title: str,
) -> str:
    """Per-mode relative eigenvalue errors with the predicted cutoff marked."""
    n = len(rel_errors)
    floor = 1e-17
    ys = [max(e, floor) for e in rel_errors]
    ylo, yhi = _log_range(ys + [threshold])
    cv = _Canvas(title, "mode index", "relative eigenvalue error")
    px = _mapper(1, max(n, 2), MARGIN_L, WIDTH - MARGIN_R)
    py = _mapper(ylo, yhi, HEIGHT - MARGIN_B, MARGIN_T)
    step = max(1, n // 10)
    for i in range(1, n + 1, step):
        cv.line(px(i), HEIGHT - MARGIN_B, px(i), HEIGHT - MARGIN_B + 4)
        cv.text(px(i), HEIGHT - MARGIN_B + 16, str(i), anchor="middle")
    cv.decade_ticks(py, ylo, yhi)
    cv.series([(px(i), py(math.log10(y))) for i, y in enumerate(ys, 1)], PALETTE[0])
    ty = py(math.log10(threshold))
    cv.line(MARGIN_L, ty, WIDTH - MARGIN_R, ty, stroke=PALETTE[1], dash="6,3")
    cv.text(WIDTH - MARGIN_R + 10, ty + 4, f"threshold {threshold:g}", color=PALETTE[1])
    if 0 < predicted_cutoff <= n:
        cx = px(predicted_cutoff + 0.5)
        cv.line(cx, MARGIN_T, cx, HEIGHT - MARGIN_B, stroke=PALETTE[2], dash="4,3")
        cv.text(cx + 4, MARGIN_T + 14, "predicted cutoff", color=PALETTE[2])
    return cv.render()
