"""Report figures as plain SVG. The text depends only on the report's tables,
so one report always gives the same bytes. Table text is XML-escaped:
``batlife report --plots`` draws any directory it is given.
"""

from __future__ import annotations

import math
from functools import partial
from html import escape
from pathlib import Path

from .errors import ValidationError
from .experiments import ALL, ExperimentReport

COLORS = "#1f77b4 #ff7f0e #2ca02c #d62728 #9467bd #8c564b #e377c2 #7f7f7f #bcbd22 #17becf".split()
# Figure size and plot-area margins (px): the legend sits in the right margin,
# and a bar chart's bottom margin grows to hold its rotated category labels.
WIDTH, HEIGHT, LEFT, RIGHT, TOP, BOTTOM, CATEGORY_LABELS = 560, 400, 70, 140, 12, 40, 50


def _el(tag: str, text: str | None = None, **attrs) -> str:
    """One SVG element: floats spelled to 0.1 px, ``_`` in a name as ``-``."""
    spelled = " ".join(f'{k.replace("_", "-")}="{v:.1f}"' if isinstance(v, float)
                       else f'{k.replace("_", "-")}="{v}"' for k, v in attrs.items())
    return f"<{tag} {spelled}/>" if text is None else f"<{tag} {spelled}>{text}</{tag}>"


def _finite(value) -> bool:
    """True for a finite number; a table read from disk may hold text in any column."""
    return not isinstance(value, str) and math.isfinite(value)


def _span(values: list[float]) -> tuple[float, float]:
    """The range of ``values`` widened by 5% on each side ((0, 1) when empty).

    A constant is first widened by max(0.5, 2**-40 * |value|) on each side:
    0.5 up to |value| = 2**39, and a share of the value beyond, where 0.5
    would vanish in rounding. Raises ValidationError when the range is not
    finite or too narrow for an eighth of it to be a positive float, as
    ticks need.
    """
    lo, hi = min(values, default=0.0), max(values, default=1.0)
    if lo == hi:
        half = max(0.5, abs(lo) * 2.0**-40)
        lo, hi = lo - half, hi + half
    lo, hi = lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo)
    if not 0.0 < (hi - lo) / 8 < math.inf:
        raise ValidationError(f"values from {min(values)!r} to {max(values)!r} span no "
                              "finite range that an axis can divide")
    return lo, hi


def _ticks(lo: float, hi: float) -> list[tuple[float, str]]:
    """Three to eight round values in [lo, hi], each with its label."""
    raw = (hi - lo) / 8
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = next(m * magnitude for m in (1, 2, 5, 10) if m * magnitude >= raw)
    decimals = max(0, -math.floor(math.log10(step)))
    return [(k * step, f"{k * step:.{decimals}f}")
            for k in range(math.ceil(lo / step), math.floor(hi / step) + 1)]


def chart(series, x_label: str, y_label: str, kind: str = "points",
          guide: tuple[float, float] | None = None) -> str:
    """The SVG text of one figure of ``series``, a list of ``(name, [(x, y), ...])``.

    ``kind`` draws each series as ``"points"``, as a ``"line"`` through them,
    or as ``"bars"`` grouped by x, a category (the last bar of a series and
    category shows). ``guide = (slope, intercept)`` adds a dashed line.
    """
    series = [(escape(str(name)), [(x, y) for x, y in points
                                   if _finite(y) and (kind == "bars" or _finite(x))])
              for name, points in series]
    if kind == "bars":
        categories = list(dict.fromkeys(x for _, points in series for x, _ in points))
        series = [(name, [(categories.index(x), y) for x, y in dict(points).items()])
                  for name, points in series]
        x_lo, x_hi = -0.5, max(len(categories), 1) - 0.5
        ys = [0.0]
    else:
        x_lo, x_hi = _span([x for _, points in series for x, _ in points])
        ys = []
    ys += [y for _, points in series for _, y in points]
    if guide is not None:
        ys += [guide[0] * x_lo + guide[1], guide[0] * x_hi + guide[1]]
    y_lo, y_hi = _span(ys)
    right = WIDTH - RIGHT
    bottom = HEIGHT - BOTTOM - (CATEGORY_LABELS if kind == "bars" else 0)

    def px(x):
        return LEFT + (x - x_lo) / (x_hi - x_lo) * (right - LEFT)

    def py(y):
        return bottom - (y - y_lo) / (y_hi - y_lo) * (bottom - TOP)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
           f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="10">',
           _el("rect", width=WIDTH, height=HEIGHT, fill="white"),
           _el("rect", x=LEFT, y=TOP, width=right - LEFT, height=bottom - TOP, fill="none",
               stroke="black"),
           _el("text", x_label, x=(LEFT + right) / 2, y=HEIGHT - 8, text_anchor="middle"),
           _el("text", y_label, transform=f"translate(14,{(TOP + bottom) / 2}) rotate(-90)",
               text_anchor="middle")]
    if kind == "bars":
        out += [_el("text", escape(str(name)), text_anchor="end",
                    transform=f"translate({px(i):.1f},{bottom + 10}) rotate(-45)")
                for i, name in enumerate(categories)]
    else:
        out += [_el("line", x1=px(t), y1=bottom, x2=px(t), y2=bottom + 4, stroke="black")
                + _el("text", label, x=px(t), y=bottom + 14, text_anchor="middle")
                for t, label in _ticks(x_lo, x_hi)]
    out += [_el("line", x1=LEFT - 4, y1=py(t), x2=LEFT, y2=py(t), stroke="black")
            + _el("text", label, x=LEFT - 6, y=py(t) + 3, text_anchor="end")
            for t, label in _ticks(y_lo, y_hi)]
    if guide is not None:
        out.append(_el("line", x1=px(x_lo), y1=py(guide[0] * x_lo + guide[1]), x2=px(x_hi),
                       y2=py(guide[0] * x_hi + guide[1]), stroke="black", stroke_width=0.8,
                       stroke_dasharray="4 3"))
    bar = 0.8 / max(len(series), 1)
    for i, (name, points) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        if kind == "bars":
            out += [_el("rect", x=px(x - 0.4 + i * bar), y=min(py(y), py(0.0)),
                        width=px(bar) - px(0.0), height=abs(py(y) - py(0.0)), fill=color)
                    for x, y in points]
        if kind == "line":
            out.append(_el("polyline", fill="none", stroke=color,
                           points=" ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in points)))
        if kind != "bars":
            out += [_el("circle", cx=px(x), cy=py(y), r=2.5, fill=color, fill_opacity=0.7)
                    for x, y in points]
        out.append(_el("rect", x=right + 10, y=TOP + 16 * i, width=10, height=10, fill=color)
                   + _el("text", name, x=right + 24, y=TOP + 16 * i + 9))
    return "\n".join([*out, "</svg>", ""])


def _series(rows, key: str, x: str, y: str) -> list:
    """The ``(x, y)`` points of ``rows``, one series per ``key`` value in order of appearance."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(row[key], []).append((row[x], row[y]))
    return list(groups.items())


def emit_plots(report: ExperimentReport, outdir) -> list[Path]:
    """Write the SVG figures of the report kind; returns their paths.

    A figure whose values no axis can span raises ValidationError naming
    it, before any figure is written.
    """
    tables, figures = report.tables, {}
    if report.kind in ("rul", "truncation"):
        figures["rul_scatter"] = partial(
            chart,
            _series(tables.get("predictions", []), "condition", "rul_observed", "rul_predicted"),
            "observed remaining life (cycles)", "predicted remaining life (cycles)",
            guide=(1.0, 0.0))
        if tables.get("importance"):
            figures["importance"] = partial(
                chart,
                _series(tables["importance"], "chemistry", "feature", "weight_by_length_scale"),
                "feature", "relative importance", "bars")
    if report.kind == "truncation":
        sweep = _series(tables.get("sweep", []), "feature_set", "relaxation_time_s", "rmse_cycles")
        figures["truncation"] = partial(
            chart,
            [(name, sorted((x / 60.0, y) for x, y in points)) for name, points in sweep],
            "relaxation time (min)", "RMSE (cycles)", "line")
    if report.kind == "classification":
        rows = tables.get("predictions", [])
        figures["probability_scatter"] = partial(
            chart,
            [(label, [(r["soh"], r["probability"]) for r in rows if r["correct"] == flag])
             for label, flag in (("correct", 1), ("misclassified", 0))],
            "state of health", "membership probability of assigned class", guide=(0.0, 0.5))
        metrics = [r for r in tables.get("metrics", []) if r["condition"] != ALL]
        figures["accuracy"] = partial(
            chart, _series(metrics, "feature_set", "condition", "accuracy_pct"),
            "condition", "accuracy (%)", "bars")
    outdir = Path(outdir)
    texts = {}
    for name, draw in figures.items():
        try:
            texts[name] = draw()
        except ValidationError as exc:
            raise ValidationError(f"figure {outdir / name}.svg: {exc}") from None
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (outdir / f"{name}.svg").write_text(text, encoding="utf-8", newline="\n")
    return [outdir / f"{name}.svg" for name in texts]
