"""svg.line_chart against its per-point predecessor, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adrcpid.svg import (
    HEIGHT,
    MARGIN_BOTTOM,
    MARGIN_LEFT,
    MARGIN_RIGHT,
    MARGIN_TOP,
    PALETTE,
    WIDTH,
    Series,
    _fmt_tick,
    _linear_ticks,
    _log_ticks,
    escape,
    line_chart,
)


def _transform(v: np.ndarray, log: bool) -> np.ndarray:
    """An axis's values after its log transform, math.log10 per value as line_chart takes it."""
    return np.array([math.log10(x) for x in v.tolist()]) if log else v


# The loop line_chart had before it worked on whole arrays, kept verbatim
# but for the log transform above and its one log flag for both axes, as the
# reference for the current one.
def reference_line_chart(
    series: list[Series],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    log: bool = False,
) -> str:
    """line_chart as it was: px/py, np.isfinite and an f-string per point."""
    xlog = ylog = log
    finite_x: list[np.ndarray] = []
    finite_y: list[np.ndarray] = []
    cleaned: list[tuple[str, np.ndarray, np.ndarray]] = []
    for s in series:
        x = np.asarray(s.x, dtype=float)
        y = np.asarray(s.y, dtype=float)
        ok = np.isfinite(x) & np.isfinite(y)
        if xlog:
            ok &= x > 0
        if ylog:
            ok &= y > 0
        cleaned.append((s.name, x, np.where(ok, y, np.nan)))
        if ok.any():
            finite_x.append(x[ok])
            finite_y.append(y[ok])
    if not finite_x:
        raise ValueError("no finite data to plot")

    x_all = np.concatenate(finite_x)
    y_all = np.concatenate(finite_y)
    tx_lo, tx_hi = float(_transform(x_all, xlog).min()), float(_transform(x_all, xlog).max())
    ty_lo, ty_hi = float(_transform(y_all, ylog).min()), float(_transform(y_all, ylog).max())
    if tx_hi <= tx_lo:
        tx_lo, tx_hi = tx_lo - 0.5, tx_hi + 0.5
    if ty_hi <= ty_lo:
        ty_lo, ty_hi = ty_lo - 0.5, ty_hi + 0.5
    pad_y = 0.05 * (ty_hi - ty_lo)
    ty_lo -= pad_y
    ty_hi += pad_y

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(tv: float) -> float:
        return MARGIN_LEFT + (tv - tx_lo) / (tx_hi - tx_lo) * plot_w

    def py(tv: float) -> float:
        return MARGIN_TOP + (ty_hi - tv) / (ty_hi - ty_lo) * plot_h

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">'
    )
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    if title:
        out.append(
            f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="24" text-anchor="middle" '
            f'font-size="15">{escape(title)}</text>'
        )

    x_ticks = _log_ticks(x_all.min(), x_all.max()) if xlog else _linear_ticks(tx_lo, tx_hi)
    y_ticks = _log_ticks(y_all.min(), y_all.max()) if ylog else _linear_ticks(ty_lo, ty_hi)
    for tick in x_ticks:
        tv = math.log10(tick) if xlog else tick
        if not tx_lo - 1e-9 <= tv <= tx_hi + 1e-9:
            continue
        x = px(tv)
        out.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_TOP}" x2="{x:.2f}" '
            f'y2="{MARGIN_TOP + plot_h}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{MARGIN_TOP + plot_h + 18}" '
            f'text-anchor="middle">{escape(_fmt_tick(tick))}</text>'
        )
    for tick in y_ticks:
        tv = math.log10(tick) if ylog else tick
        if not ty_lo - 1e-9 <= tv <= ty_hi + 1e-9:
            continue
        y = py(tv)
        out.append(
            f'<line x1="{MARGIN_LEFT}" y1="{y:.2f}" x2="{MARGIN_LEFT + plot_w}" '
            f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 6}" y="{y + 4:.2f}" '
            f'text-anchor="end">{escape(_fmt_tick(tick))}</text>'
        )
    out.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333"/>'
    )
    if xlabel:
        out.append(
            f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 14}" '
            f'text-anchor="middle">{escape(xlabel)}</text>'
        )
    if ylabel:
        yc = MARGIN_TOP + plot_h / 2
        out.append(
            f'<text x="18" y="{yc:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 18 {yc:.1f})">{escape(ylabel)}</text>'
        )

    for idx, (name, x, y) in enumerate(cleaned):
        color = PALETTE[idx % len(PALETTE)]
        tx = _transform(np.where(x > 0, x, np.nan), xlog) if xlog else x
        ty = _transform(np.where(y > 0, y, np.nan), ylog) if ylog else y
        points: list[str] = []
        segments: list[list[str]] = []
        for xv, yv in zip(tx, ty):
            if np.isfinite(xv) and np.isfinite(yv):
                points.append(f"{px(float(xv)):.2f},{py(float(yv)):.2f}")
            elif points:
                segments.append(points)
                points = []
        if points:
            segments.append(points)
        for seg in segments:
            if len(seg) < 2:
                continue
            out.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.4" '
                f'points="{" ".join(seg)}"/>'
            )
        ly = MARGIN_TOP + 14 + 16 * idx
        lx = MARGIN_LEFT + plot_w + 12
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{lx + 28}" y="{ly}">{escape(name)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _render(chart, series, **kwargs):
    try:
        return chart(series, **kwargs)
    except Exception as exc:  # both sides must fail the same way
        return type(exc), str(exc)


def assert_same_chart(series, **kwargs):
    assert _render(line_chart, series, **kwargs) == _render(reference_line_chart, series, **kwargs)


GAPS = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e-300)
values = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(1e-6, 1e6),
    st.sampled_from(GAPS),
    st.floats(),  # rarely: extremes whose axes overflow on both sides
)


@st.composite
def charts(draw):
    series = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 25))
        y = draw(st.lists(values, min_size=n, max_size=n))
        if draw(st.booleans()):
            x = np.logspace(-2, 2, n)  # a figure's own grid
            x[draw(st.lists(st.integers(0, n - 1), max_size=3))] = draw(st.sampled_from(GAPS))
        else:
            x = draw(st.lists(values, min_size=n, max_size=n))
        series.append(Series(f"s{i} <&>", np.asarray(x, dtype=float), np.asarray(y, dtype=float)))
    return series


@given(series=charts(), log=st.booleans())
def test_matches_per_point_reference(series, log):
    assert_same_chart(series, title="t", xlabel="x", ylabel="y", log=log)


@pytest.mark.parametrize("log", [False, True])
@pytest.mark.parametrize(
    "y",
    [
        [1.0, np.nan, 2.0, 3.0, np.inf, 4.0, -np.inf, 5.0, 6.0, 7.0],  # gaps that leave one-point runs
        [0.5, -1.0, 2.0, 0.0, 3.0, 4.0, -0.0, 5.0, 6.0, 1e-300],  # values <= 0 fall out of a log axis
        [2.0] * 10,  # constant
        [np.nan] * 9 + [1.0],  # a single finite point draws no line
    ],
)
def test_gaps_and_degenerate_series(y, log):
    x = np.linspace(0.1, 10.0, 10)
    chart = [Series("a", x, np.asarray(y)), Series("b", x, 2.0 * np.arange(1, 11))]
    assert_same_chart(chart, log=log)
    assert_same_chart(chart[:1], log=log)


def test_no_finite_point_is_refused_on_both_sides():
    series = [Series("a", np.arange(3.0), np.array([np.nan, np.inf, -np.inf]))]
    assert _render(line_chart, series) == _render(reference_line_chart, series) == (
        ValueError, "no finite data to plot",
    )


def test_an_axis_a_few_ulps_wide_gets_its_ticks():
    # the tick step is below the float resolution there; adding it once left t in place for good
    lo, hi = 1.0, 1.0 + 2.0**-51
    assert _linear_ticks(lo, hi) == [1.0 - 2.0**-53, 1.0]
    chart = line_chart([Series("a", [0.0, 1.0], [lo, hi])])
    assert chart.count("<polyline") == 1
