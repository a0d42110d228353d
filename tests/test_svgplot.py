"""The SVG plots against the per-point code they replaced, kept here as the
oracle of their bytes."""

import math

import numpy as np
import pytest

from ritzspline import svgplot
from ritzspline.svgplot import (
    HEIGHT,
    MARGIN_B,
    MARGIN_L,
    MARGIN_R,
    MARGIN_T,
    PALETTE,
    WIDTH,
    Series,
    _Canvas,
    _log_range,
    _mapper,
)


class _PerPointCanvas(_Canvas):
    """The canvas with its series written point by point, by f-strings."""

    def series(self, points, color):
        if len(points) >= 2:
            pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
            self.parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        self.parts += [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>'
                       for x, y in points]


def _spectrum_plot_per_point(rel_errors, predicted_cutoff, threshold, title):
    """``spectrum_plot`` mapping one mode at a time."""
    n = len(rel_errors)
    floor = 1e-17
    ys = [max(e, floor) for e in rel_errors]
    ylo, yhi = _log_range(ys + [threshold])
    cv = _PerPointCanvas(title, "mode index", "relative eigenvalue error")
    px = _mapper(1, max(n, 2), MARGIN_L, WIDTH - MARGIN_R)
    py = _mapper(ylo, yhi, HEIGHT - MARGIN_B, MARGIN_T)
    step = max(1, n // 10)
    for i in range(1, n + 1, step):
        cv.line(px(i), HEIGHT - MARGIN_B, px(i), HEIGHT - MARGIN_B + 4)
        cv.text(px(i), HEIGHT - MARGIN_B + 16, str(i), anchor="middle")
    cv.decade_ticks(py, ylo, yhi)
    cv.series([(px(i + 1), py(math.log10(y))) for i, y in enumerate(ys)], PALETTE[0])
    ty = py(math.log10(threshold))
    cv.line(MARGIN_L, ty, WIDTH - MARGIN_R, ty, stroke=PALETTE[1], dash="6,3")
    cv.text(WIDTH - MARGIN_R + 10, ty + 4, f"threshold {threshold:g}", color=PALETTE[1])
    if 0 < predicted_cutoff <= n:
        cx = px(predicted_cutoff + 0.5)
        cv.line(cx, MARGIN_T, cx, HEIGHT - MARGIN_B, stroke=PALETTE[2], dash="4,3")
        cv.text(cx + 4, MARGIN_T + 14, "predicted cutoff", color=PALETTE[2])
    return cv.render()


def _errors(rng, n):
    """Errors over many decades, with zeros and values below the plot floor."""
    errs = 10.0 ** rng.uniform(-16, 1, n)
    kinds = rng.integers(0, 6, n)
    errs[kinds == 0] = 0.0
    errs[kinds == 1] = 10.0 ** rng.uniform(-25, -17, np.sum(kinds == 1))
    return errs.tolist()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 57, 201])
def test_canvas_series_matches_per_point_formatting(n):
    rng = np.random.default_rng(100 + n)
    points = list(zip(rng.uniform(-50, 700, n).tolist(), rng.uniform(-50, 500, n).tolist()))
    if n > 3:  # halfway cases of the two-decimal rounding, and integers
        points[:3] = [(0.125, -0.375), (2.675, 1.005), (3, 4)]
    got, want = _Canvas("t", "x", "y"), _PerPointCanvas("t", "x", "y")
    got.series(points, PALETTE[3])
    want.series(points, PALETTE[3])
    assert got.render() == want.render()


@pytest.mark.parametrize("n", [1, 2, 3, 11, 40, 201, 400])
def test_spectrum_plot_matches_per_point_mapping(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(5):
        errs = _errors(rng, n)
        threshold = float(rng.choice([0.1, 1.0, rng.uniform(1e-3, 1.0)]))
        cutoff = int(rng.integers(0, n + 2))
        want = _spectrum_plot_per_point(errs, cutoff, threshold, "spectrum <p>")
        assert svgplot.spectrum_plot(errs, cutoff, threshold, "spectrum <p>") == want
    zeros = [0.0] * n
    assert svgplot.spectrum_plot(zeros, n, 0.1, "t") == _spectrum_plot_per_point(
        zeros, n, 0.1, "t")


@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_loglog_plot_matches_per_point_series(n, monkeypatch):
    rng = np.random.default_rng(300 + n)
    hs = [2.0 ** -k for k in range(1, n + 1)]
    series = [Series(f"l{l}", hs, _errors(rng, n)) for l in range(3)]
    series.append(Series("zero", hs, [0.0] * n))
    # all series, the all-zero one alone (no positive error to range over),
    # and no series at all (no h either)
    cases = [(series, "study", [2.0, 3.5]), (series[-1:], "zero", [2.0]), ([], "none", [2.0])]
    got = [svgplot.loglog_plot(*args) for args in cases]
    monkeypatch.setattr(svgplot, "_Canvas", _PerPointCanvas)
    assert got == [svgplot.loglog_plot(*args) for args in cases]
    assert "<circle" not in got[1] and "<circle" not in got[2]
