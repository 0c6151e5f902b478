"""Minimal self-contained SVG line charts with linear or log axes.

Plots are conveniences next to the CSV data, so the emitter stays small:
fixed layout, a deterministic color cycle, no external dependencies, plain
floats.  Output is a pure function of the input series.
"""

from __future__ import annotations

import math
from itertools import compress, groupby
from typing import Sequence

from .value import Value

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

WIDTH = 920
HEIGHT = 560
MARGIN_LEFT = 72
MARGIN_RIGHT = 180  # legend lives here
MARGIN_TOP = 44
MARGIN_BOTTOM = 56


def escape(text: str) -> str:
    """Escape &, < and > for XML character data.

    Local, because xml.sax.saxutils imports urllib.request and with it the
    http, email and ssl packages, which would slow every command's start.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class Series(Value):
    name: str
    x: Sequence[float]
    y: Sequence[float]

    def __init__(self, name: str, x: Sequence[float], y: Sequence[float]):
        self.__dict__.update(name=name, x=x, y=y)


def _linear_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10 * mag
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (mult * mag) <= target + 0.5:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    # a range only a few ulps wide has a step below the float resolution, which
    # leaves t where it is: it gets the ticks up to there
    while t <= hi + 1e-9 * step and (not ticks or t > ticks[-1]):
        ticks.append(0.0 if abs(t) < 1e-9 * step else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    d0 = math.ceil(math.log10(lo) - 1e-9)
    d1 = math.floor(math.log10(hi) + 1e-9)
    decades = list(range(d0, d1 + 1))
    stride = 1 + len(decades) // 9
    return [10.0**d for d in decades[::stride]]


def _fmt_tick(v: float) -> str:
    return f"{v:g}"


def _drawable(x: list[float], y: list[float], log: bool) -> list[bool]:
    """Per point (x, y), whether it can be drawn: finite, and positive on log axes."""
    isfinite = math.isfinite
    if all(map(isfinite, x + y)) and (min(x + y, default=1.0) > 0 or not log):
        return [True] * len(x)  # every point, found at the speed of the builtins
    return [isfinite(u) and isfinite(v) and (not log or u > 0 and v > 0) for u, v in zip(x, y)]


def line_chart(
    series: list[Series],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    log: bool = False,
) -> str:
    """Render named (x, y) series as one SVG line chart, with both axes linear or both log."""
    # the drawable points of all series in order, finite and positive on log
    # axes, and each series with the lengths of its runs of them
    xs: list[float] = []
    ys: list[float] = []
    masked: list[tuple[str, list[int]]] = []
    for s in series:
        x, y = list(map(float, s.x)), list(map(float, s.y))
        ok = _drawable(x, y, log)
        xs += compress(x, ok)
        ys += compress(y, ok)
        masked.append((s.name, [sum(run) for drawable, run in groupby(ok) if drawable]))
    if not xs:
        raise ValueError("no finite data to plot")

    # the axis values, after the log transform
    txs = list(map(math.log10, xs)) if log else xs
    tys = list(map(math.log10, ys)) if log else ys
    tx_lo, tx_hi = min(txs), max(txs)
    ty_lo, ty_hi = min(tys), max(tys)
    if tx_hi <= tx_lo:
        tx_lo, tx_hi = tx_lo - 0.5, tx_hi + 0.5
    if ty_hi <= ty_lo:
        ty_lo, ty_hi = ty_lo - 0.5, ty_hi + 0.5
    pad_y = 0.05 * (ty_hi - ty_lo)
    ty_lo -= pad_y
    ty_hi += pad_y

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    # axis values (after the log transform) -> pixels, for ticks or points
    x_span, y_span = tx_hi - tx_lo, ty_hi - ty_lo

    def px(tvs: list[float]) -> list[float]:
        return [MARGIN_LEFT + (tv - tx_lo) / x_span * plot_w for tv in tvs]

    def py(tvs: list[float]) -> list[float]:
        return [MARGIN_TOP + (ty_hi - tv) / y_span * plot_h for tv in tvs]

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

    x_ticks = _log_ticks(min(xs), max(xs)) if log else _linear_ticks(tx_lo, tx_hi)
    y_ticks = _log_ticks(min(ys), max(ys)) if log else _linear_ticks(ty_lo, ty_hi)
    for tick in x_ticks:
        tv = math.log10(tick) if log else tick
        if not tx_lo - 1e-9 <= tv <= tx_hi + 1e-9:
            continue
        (x,) = px([tv])
        out.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_TOP}" x2="{x:.2f}" '
            f'y2="{MARGIN_TOP + plot_h}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{MARGIN_TOP + plot_h + 18}" '
            f'text-anchor="middle">{escape(_fmt_tick(tick))}</text>'
        )
    for tick in y_ticks:
        tv = math.log10(tick) if log else tick
        if not ty_lo - 1e-9 <= tv <= ty_hi + 1e-9:
            continue
        (y,) = py([tv])
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

    pxs, pys = px(txs), py(tys)
    end = 0
    for idx, (name, lengths) in enumerate(masked):
        color = PALETTE[idx % len(PALETTE)]
        for n in lengths:
            start, end = end, end + n
            if n < 2:
                continue
            coords = [0.0] * (2 * n)
            coords[::2], coords[1::2] = pxs[start:end], pys[start:end]
            points = ("%.2f,%.2f " * n)[:-1] % tuple(coords)
            out.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.4" '
                f'points="{points}"/>'
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
