"""Self-contained HTML dashboard over a characterized suite.

:func:`render_dashboard` turns a metric matrix plus (optionally
timeline-carrying) characterizations into **one** HTML document with
every asset inline — inline SVG charts, inline CSS, zero scripts, zero
external references — so the page renders identically from ``repro
report --html``, from ``GET /dashboard``, and from a file opened years
later with no network.

Charts (all SVG, one measure per chart):

- **Per-workload timelines** — records committed over the run with the
  ramp-up window shaded, and the per-phase simulation windows' ILP as a
  bar strip (the paper's time-resolved protocol made visible).
- **Suite heatmap** — column z-scores of the 45-metric matrix on the
  diverging blue↔red ramp with a neutral-gray midpoint (sign = above or
  below the suite mean, exactly the normalization the clustering uses).
- **Kiviat diagrams** — Figure 6's radar polygons for the chosen
  representatives, via :mod:`repro.core.kiviat`.
- **Flamegraph** — a span-attributed icicle of a merged fleet CPU
  profile (:mod:`repro.obs.prof`), rendered as pure SVG with ``<title>``
  tooltips; :func:`render_profile_page` serves it standalone for
  ``GET /profile?format=flame`` and ``repro profile --flame``.

Colors come from the validated reference palette (categorical slot 1
blue for series, diverging blue↔red for signed z-scores) with light and
dark values swapped through CSS custom properties; values, labels and
legends wear ink tokens, never series color.  A ``<details>`` table view
of the full matrix backs every chart for non-visual access.
"""

from __future__ import annotations

import html
from collections.abc import Iterable, Sequence

import numpy as np

from repro.cluster.testbed import WorkloadCharacterization
from repro.core.dataset import WorkloadMetricMatrix
from repro.core.kiviat import KiviatDiagram
from repro.core.subsetting import SubsettingResult
from repro.metrics.catalog import METRIC_NAMES
from repro.obs.prof import (
    UNATTRIBUTED_BUSY,
    UNATTRIBUTED_IDLE,
    _iter_stacks,
    _stack_root,
    attribution,
    span_totals,
)

__all__ = ["render_dashboard", "render_profile_page"]


# -- palette (reference instance; see the data-viz method) ---------------------

#: Diverging blue ↔ red with a neutral-gray midpoint, per mode.  Arm
#: endpoints are the palette's categorical blue/red steps for that mode.
_DIVERGING_LIGHT = ("#2a78d6", "#f0efec", "#e34948")
_DIVERGING_DARK = ("#3987e5", "#383835", "#e66767")

#: Quantized z-score buckets: a cell's class is ``z±N``; each bucket gets
#: a light and a dark fill so the heatmap follows the color scheme.
_Z_BUCKETS = 5  # per arm: z-5 .. z0 .. z+5


def _hex_to_rgb(value: str) -> tuple[int, int, int]:
    value = value.lstrip("#")
    return tuple(int(value[i : i + 2], 16) for i in (0, 2, 4))


def _lerp_hex(a: str, b: str, t: float) -> str:
    ra, ga, ba = _hex_to_rgb(a)
    rb, gb, bb = _hex_to_rgb(b)
    return "#{:02x}{:02x}{:02x}".format(
        round(ra + (rb - ra) * t),
        round(ga + (gb - ga) * t),
        round(ba + (bb - ba) * t),
    )


def _diverging_ramp(poles: tuple[str, str, str]) -> dict[int, str]:
    """Bucket → hex for one mode: negative arm cool, positive arm warm."""
    low, mid, high = poles
    ramp = {0: mid}
    for step in range(1, _Z_BUCKETS + 1):
        t = step / _Z_BUCKETS
        ramp[-step] = _lerp_hex(mid, low, t)
        ramp[step] = _lerp_hex(mid, high, t)
    return ramp


def _bucket(z: float, span: float = 2.5) -> int:
    """Quantize a z-score into ``[-_Z_BUCKETS, +_Z_BUCKETS]``."""
    if not np.isfinite(z):
        return 0
    scaled = int(round(z / span * _Z_BUCKETS))
    return max(-_Z_BUCKETS, min(_Z_BUCKETS, scaled))


def _z_scores(values: np.ndarray) -> np.ndarray:
    """Column z-scores (the matrix normalization the pipeline uses)."""
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    safe = np.where(std == 0.0, 1.0, std)
    z = (values - mean) / safe
    return np.where(std == 0.0, 0.0, z)


def _esc(text: object) -> str:
    return html.escape(str(text), quote=True)


# -- SVG builders --------------------------------------------------------------


def _polyline_points(
    xs: Sequence[float],
    ys: Sequence[float],
    width: float,
    height: float,
    pad: float,
) -> str:
    x_max = max(xs) or 1.0
    y_max = max(ys) or 1.0
    points = []
    for x, y in zip(xs, ys):
        px = pad + (x / x_max) * (width - 2 * pad)
        py = height - pad - (y / y_max) * (height - 2 * pad)
        points.append(f"{px:.1f},{py:.1f}")
    return " ".join(points)


def _timeline_svg(char: WorkloadCharacterization) -> str:
    """Records committed over the run, ramp-up window shaded."""
    series = char.timeline
    run = series.run_samples
    if len(run) < 2:
        return ""
    width, height, pad = 360.0, 120.0, 8.0
    xs = [float(s["t_ms"]) for s in run]
    ys = [float(s["records_committed"]) for s in run]
    points = _polyline_points(xs, ys, width, height, pad)
    ramp_px = pad + (
        (series.ramp_up_ms / (max(xs) or 1.0)) * (width - 2 * pad)
    )
    last = run[-1]
    tooltip = (
        f"{char.name}: {last['records_committed']:,} records, "
        f"{last['tasks_done']} tasks, ramp-up "
        f"{series.ramp_up_ms:.0f} ms of {series.duration_ms:.0f} ms"
    )
    return f"""<svg viewBox="0 0 {width:.0f} {height:.0f}" width="{width:.0f}" height="{height:.0f}" role="img" aria-label="{_esc(char.name)} records timeline">
  <title>{_esc(tooltip)}</title>
  <rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="var(--surface-1)"/>
  <rect x="{pad:.1f}" y="{pad:.1f}" width="{max(0.0, ramp_px - pad):.1f}" height="{height - 2 * pad:.1f}" fill="var(--ramp-wash)"/>
  <line x1="{ramp_px:.1f}" y1="{pad:.1f}" x2="{ramp_px:.1f}" y2="{height - pad:.1f}" stroke="var(--baseline)" stroke-dasharray="3 3"/>
  <line x1="{pad:.1f}" y1="{height - pad:.1f}" x2="{width - pad:.1f}" y2="{height - pad:.1f}" stroke="var(--baseline)"/>
  <polyline points="{points}" fill="none" stroke="var(--series-1)" stroke-width="2" stroke-linejoin="round"/>
</svg>"""


def _windows_svg(char: WorkloadCharacterization, metric: str = "ILP") -> str:
    """Per-phase simulation windows of one slave as a bar strip."""
    series = char.timeline
    slaves = sorted({s["slave"] for s in series.sim_samples})
    if not slaves:
        return ""
    windows = [
        s for s in series.sim_samples
        if s["slave"] == slaves[0] and metric in s["metrics"]
    ]
    if not windows:
        return ""
    width, height, pad, gap = 360.0, 72.0, 8.0, 2.0
    n = len(windows)
    bar_w = max(1.0, (width - 2 * pad - gap * (n - 1)) / n)
    peak = max(float(w["metrics"][metric]) for w in windows) or 1.0
    bars = []
    for i, window in enumerate(windows):
        value = float(window["metrics"][metric])
        bar_h = max(1.0, (value / peak) * (height - 2 * pad))
        x = pad + i * (bar_w + gap)
        y = height - pad - bar_h
        bars.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
            f'height="{bar_h:.1f}" rx="2" fill="var(--series-1)">'
            f"<title>{_esc(window['phase'])}: {metric} {value:.3f}</title>"
            f"</rect>"
        )
    return f"""<svg viewBox="0 0 {width:.0f} {height:.0f}" width="{width:.0f}" height="{height:.0f}" role="img" aria-label="{_esc(char.name)} per-window {metric}">
  <title>{_esc(char.name)}: per-phase {metric} (slave {slaves[0]}, {n} windows)</title>
  <rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="var(--surface-1)"/>
  <line x1="{pad:.1f}" y1="{height - pad:.1f}" x2="{width - pad:.1f}" y2="{height - pad:.1f}" stroke="var(--baseline)"/>
  {''.join(bars)}
</svg>"""


def _heatmap_svg(matrix: WorkloadMetricMatrix) -> str:
    """Workload × metric z-score heatmap on the diverging ramp."""
    z = _z_scores(matrix.values)
    n_rows, n_cols = z.shape
    cell, label_w, label_h = 14.0, 110.0, 16.0
    width = label_w + n_cols * cell + 8
    height = label_h + n_rows * cell + 8
    cells = []
    for r in range(n_rows):
        for c in range(n_cols):
            bucket = _bucket(float(z[r, c]))
            sign = "m" if bucket < 0 else "p"
            tip = (
                f"{matrix.workloads[r]} · {METRIC_NAMES[c]}: "
                f"z = {z[r, c]:+.2f}"
            )
            cells.append(
                f'<rect x="{label_w + c * cell:.1f}" '
                f'y="{label_h + r * cell:.1f}" width="{cell - 1:.1f}" '
                f'height="{cell - 1:.1f}" class="z{sign}{abs(bucket)}">'
                f"<title>{_esc(tip)}</title></rect>"
            )
    row_labels = [
        f'<text x="{label_w - 6:.1f}" y="{label_h + r * cell + cell - 4:.1f}" '
        f'text-anchor="end" class="axis">{_esc(name)}</text>'
        for r, name in enumerate(matrix.workloads)
    ]
    col_labels = [
        f'<text x="{label_w + c * cell + cell / 2 - 0.5:.1f}" '
        f'y="{label_h - 5:.1f}" text-anchor="middle" class="axis">'
        f"{c + 1}</text>"
        for c in range(n_cols)
        if (c + 1) % 5 == 0 or c == 0
    ]
    return f"""<svg viewBox="0 0 {width:.0f} {height:.0f}" width="{width:.0f}" height="{height:.0f}" role="img" aria-label="suite metric z-score heatmap">
  <title>Column z-scores of the workload × metric matrix (blue below suite mean, red above)</title>
  {''.join(col_labels)}
  {''.join(row_labels)}
  {''.join(cells)}
</svg>"""


def _kiviat_svg(diagram: KiviatDiagram) -> str:
    """One representative's Figure-6 radar polygon."""
    size, pad = 150.0, 24.0
    center = size / 2
    radius = center - pad
    peak = max(abs(v) for v in diagram.values) or 1.0
    vertices = diagram.polygon()
    points = " ".join(
        f"{center + (x / peak) * radius:.1f},{center + (y / peak) * radius:.1f}"
        for x, y in vertices
    )
    n = len(diagram.axes)
    spokes, labels = [], []
    for i, axis in enumerate(diagram.axes):
        angle = 2.0 * np.pi * i / n
        ex = center + radius * np.cos(angle)
        ey = center + radius * np.sin(angle)
        spokes.append(
            f'<line x1="{center:.1f}" y1="{center:.1f}" '
            f'x2="{ex:.1f}" y2="{ey:.1f}" stroke="var(--gridline)"/>'
        )
        lx = center + (radius + 10) * np.cos(angle)
        ly = center + (radius + 10) * np.sin(angle)
        labels.append(
            f'<text x="{lx:.1f}" y="{ly + 3:.1f}" text-anchor="middle" '
            f'class="axis">{_esc(axis)}</text>'
        )
    tip = (
        f"{diagram.workload}: dominated by {diagram.dominant_axis} "
        f"(|score| {peak:.2f})"
    )
    return f"""<svg viewBox="0 0 {size:.0f} {size:.0f}" width="{size:.0f}" height="{size:.0f}" role="img" aria-label="{_esc(diagram.workload)} Kiviat diagram">
  <title>{_esc(tip)}</title>
  {''.join(spokes)}
  <polygon points="{points}" fill="var(--series-1)" fill-opacity="0.18" stroke="var(--series-1)" stroke-width="2" stroke-linejoin="round"/>
  {''.join(labels)}
</svg>"""


# -- page assembly -------------------------------------------------------------


def _heatmap_classes() -> str:
    """CSS rules for the quantized diverging buckets, light and dark."""
    light = _diverging_ramp(_DIVERGING_LIGHT)
    dark = _diverging_ramp(_DIVERGING_DARK)

    def rules(ramp: dict[int, str], scope: str) -> Iterable[str]:
        for bucket, color in sorted(ramp.items()):
            sign = "m" if bucket < 0 else "p"
            yield f"{scope} .z{sign}{abs(bucket)} {{ fill: {color}; }}"

    dark_rules = "\n".join(rules(dark, ".viz-root"))
    return "\n".join(
        [
            *rules(light, ".viz-root"),
            "@media (prefers-color-scheme: dark) {",
            ':root:where(:not([data-theme="light"])) ' + dark_rules.replace(
                "\n", "\n:root:where(:not([data-theme=\"light\"])) "
            ),
            "}",
            ':root[data-theme="dark"] ' + dark_rules.replace(
                "\n", '\n:root[data-theme="dark"] '
            ),
        ]
    )


_STYLE = """
.viz-root {
  color-scheme: light;
  --surface-1:      #fcfcfb;
  --page:           #f9f9f7;
  --text-primary:   #0b0b0b;
  --text-secondary: #52514e;
  --muted:          #898781;
  --gridline:       #e1e0d9;
  --baseline:       #c3c2b7;
  --border:         rgba(11,11,11,0.10);
  --series-1:       #2a78d6;
  --series-2:       #e34948;
  --ramp-wash:      rgba(137,135,129,0.12);
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1:      #1a1a19;
    --page:           #0d0d0d;
    --text-primary:   #ffffff;
    --text-secondary: #c3c2b7;
    --muted:          #898781;
    --gridline:       #2c2c2a;
    --baseline:       #383835;
    --border:         rgba(255,255,255,0.10);
    --series-1:       #3987e5;
    --series-2:       #e66767;
    --ramp-wash:      rgba(137,135,129,0.18);
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1:      #1a1a19;
  --page:           #0d0d0d;
  --text-primary:   #ffffff;
  --text-secondary: #c3c2b7;
  --muted:          #898781;
  --gridline:       #2c2c2a;
  --baseline:       #383835;
  --border:         rgba(255,255,255,0.10);
  --series-1:       #3987e5;
  --series-2:       #e66767;
  --ramp-wash:      rgba(137,135,129,0.18);
}
.viz-root {
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page);
  color: var(--text-primary);
  margin: 0;
  padding: 24px;
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root h2 { font-size: 15px; margin: 28px 0 10px; }
.viz-root h3 { font-size: 13px; margin: 0 0 6px; }
.viz-root p.sub { color: var(--text-secondary); font-size: 13px; margin: 0 0 16px; }
.viz-root .cards { display: flex; flex-wrap: wrap; gap: 16px; }
.viz-root .card {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 12px;
}
.viz-root .card p { color: var(--text-secondary); font-size: 12px; margin: 6px 0 0; }
.viz-root svg { display: block; }
.viz-root svg .axis { fill: var(--muted); font-size: 9px; font-family: inherit; }
.viz-root table { border-collapse: collapse; font-size: 11px; }
.viz-root th, .viz-root td {
  border: 1px solid var(--gridline);
  padding: 2px 6px;
  text-align: right;
  font-variant-numeric: tabular-nums;
}
.viz-root th { color: var(--text-secondary); font-weight: 600; }
.viz-root td.name, .viz-root th.name { text-align: left; }
.viz-root details summary { cursor: pointer; color: var(--text-secondary); font-size: 13px; }
.viz-root .legend { color: var(--text-secondary); font-size: 12px; margin: 6px 0 0; }
.viz-root .swatch {
  display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin: 0 4px 0 10px; vertical-align: baseline;
}
.viz-root rect.fl-span { fill: var(--series-1); fill-opacity: 0.85; }
.viz-root rect.fl-span.fl-frame { fill-opacity: 0.45; }
.viz-root rect.fl-idle { fill: var(--muted); fill-opacity: 0.50; }
.viz-root rect.fl-idle.fl-frame { fill-opacity: 0.28; }
.viz-root rect.fl-untracked { fill: var(--series-2); fill-opacity: 0.60; }
.viz-root rect.fl-untracked.fl-frame { fill-opacity: 0.35; }
.viz-root svg .fl-label {
  fill: var(--text-primary); font-size: 10px;
  font-family: ui-monospace, "SF Mono", Menlo, monospace;
  pointer-events: none;
}
"""


def _matrix_table(matrix: WorkloadMetricMatrix) -> str:
    """The full matrix as an HTML table (the charts' accessible twin)."""
    head = "".join(
        f'<th title="{_esc(name)}">{i + 1}</th>'
        for i, name in enumerate(METRIC_NAMES)
    )
    rows = []
    for r, workload in enumerate(matrix.workloads):
        cells = "".join(
            f"<td>{matrix.values[r, c]:.3g}</td>"
            for c in range(matrix.values.shape[1])
        )
        rows.append(f'<tr><td class="name">{_esc(workload)}</td>{cells}</tr>')
    return (
        "<details><summary>Table view: full workload × metric matrix"
        "</summary><div style=\"overflow-x:auto\"><table>"
        f'<tr><th class="name">workload</th>{head}</tr>'
        f"{''.join(rows)}</table></div></details>"
    )


def _timeline_cards(
    characterizations: Sequence[WorkloadCharacterization],
) -> str:
    cards = []
    for char in characterizations:
        if char.timeline is None or len(char.timeline.run_samples) < 2:
            continue
        rates = char.timeline.steady_state_rates()
        windows = _windows_svg(char)
        cards.append(
            '<div class="card">'
            f"<h3>{_esc(char.name)}</h3>"
            f"{_timeline_svg(char)}"
            f"{windows}"
            f"<p>steady state: {rates['records_per_s']:,.0f} records/s over "
            f"{rates['window_s']:.2f}s · {len(char.timeline)} samples</p>"
            "</div>"
        )
    if not cards:
        return (
            '<p class="sub">No timelines recorded — collect with timeline '
            "sampling enabled (<code>repro report --html</code> does) to "
            "see per-run charts here.</p>"
        )
    return f'<div class="cards">{"".join(cards)}</div>'


def _budget_curve_svg(selection) -> str:
    """Coverage vs. budget staircase with the chosen operating point.

    One series (the greedy ranking's nested prefixes), so no legend —
    the axis labels and the direct-labelled operating point carry it.
    """
    ranking = selection.ranking
    width, height, pad_l, pad_b, pad = 420.0, 180.0, 46.0, 30.0, 10.0
    x_max = max(ranking[-1].cumulative_cost_s, selection.budget_s) * 1.05
    plot_w = width - pad_l - pad
    plot_h = height - pad - pad_b

    def px(cost: float) -> float:
        return pad_l + (cost / x_max) * plot_w

    def py(coverage: float) -> float:
        return height - pad_b - coverage * plot_h

    # Staircase: coverage jumps when a prefix becomes affordable.
    vertices = [(px(0.0), py(0.0))]
    previous = 0.0
    for entry in ranking:
        vertices.append((px(entry.cumulative_cost_s), py(previous)))
        vertices.append(
            (px(entry.cumulative_cost_s), py(entry.cumulative_coverage))
        )
        previous = entry.cumulative_coverage
    points = " ".join(f"{x:.1f},{y:.1f}" for x, y in vertices)

    markers = []
    for entry in ranking:
        tip = (
            f"{entry.workload}: +{entry.gain:.3f} coverage for "
            f"{entry.cost_s:.2f}s (cumulative {entry.cumulative_cost_s:.2f}s "
            f"→ {entry.cumulative_coverage:.3f})"
        )
        markers.append(
            f'<circle cx="{px(entry.cumulative_cost_s):.1f}" '
            f'cy="{py(entry.cumulative_coverage):.1f}" r="4" '
            f'fill="var(--series-1)" stroke="var(--surface-1)" '
            f'stroke-width="2"><title>{_esc(tip)}</title></circle>'
        )

    budget_x = px(min(selection.budget_s, x_max))
    op_x, op_y = px(selection.cost_s), py(selection.coverage)
    op_tip = (
        f"operating point: {len(selection.picks)} workloads, "
        f"{selection.cost_s:.2f}s of {selection.budget_s:g}s budget, "
        f"coverage {selection.coverage:.3f}"
    )
    label_anchor = "end" if op_x > width * 0.6 else "start"
    label_x = op_x - 10 if label_anchor == "end" else op_x + 10
    return f"""<svg viewBox="0 0 {width:.0f} {height:.0f}" width="{width:.0f}" height="{height:.0f}" role="img" aria-label="coverage versus budget curve">
  <title>{_esc(op_tip)}</title>
  <rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="var(--surface-1)"/>
  <line x1="{pad_l:.1f}" y1="{py(1.0):.1f}" x2="{width - pad:.1f}" y2="{py(1.0):.1f}" stroke="var(--gridline)" stroke-dasharray="2 4"/>
  <line x1="{pad_l:.1f}" y1="{py(0.0):.1f}" x2="{width - pad:.1f}" y2="{py(0.0):.1f}" stroke="var(--baseline)"/>
  <line x1="{pad_l:.1f}" y1="{pad:.1f}" x2="{pad_l:.1f}" y2="{py(0.0):.1f}" stroke="var(--baseline)"/>
  <line x1="{budget_x:.1f}" y1="{pad:.1f}" x2="{budget_x:.1f}" y2="{py(0.0):.1f}" stroke="var(--baseline)" stroke-dasharray="3 3"/>
  <text x="{budget_x + 4:.1f}" y="{pad + 10:.1f}" class="axis">budget</text>
  <text x="{pad_l - 6:.1f}" y="{py(1.0) + 4:.1f}" text-anchor="end" class="axis">1.0</text>
  <text x="{pad_l - 6:.1f}" y="{py(0.0) + 4:.1f}" text-anchor="end" class="axis">0</text>
  <text x="{width / 2:.1f}" y="{height - 6:.1f}" text-anchor="middle" class="axis">cumulative simulated-runtime cost (s)</text>
  <polyline points="{points}" fill="none" stroke="var(--series-1)" stroke-width="2" stroke-linejoin="round"/>
  {''.join(markers)}
  <circle cx="{op_x:.1f}" cy="{op_y:.1f}" r="6" fill="var(--series-1)" stroke="var(--surface-1)" stroke-width="2"><title>{_esc(op_tip)}</title></circle>
  <text x="{label_x:.1f}" y="{max(op_y - 10, pad + 10):.1f}" text-anchor="{label_anchor}" class="axis">{len(selection.picks)} workloads · {selection.coverage:.2f}</text>
</svg>"""


def _budget_section(selection) -> str:
    """The budget panel: curve + its accessible table twin."""
    if selection is None or not selection.ranking:
        return (
            '<p class="sub">No budgeted selection computed — pass a budget '
            "(<code>repro subset --budget</code> or "
            "<code>GET /subset?budget=S</code>) to choose an operating "
            "point on this curve.</p>"
        )
    rows = "".join(
        f'<tr><td class="name">{_esc(entry.workload)}</td>'
        f"<td>{entry.cost_s:.3f}</td>"
        f"<td>{entry.cumulative_cost_s:.3f}</td>"
        f"<td>{entry.gain:.4f}</td>"
        f"<td>{entry.cumulative_coverage:.4f}</td>"
        f"<td>{'yes' if entry.workload in selection.workloads else 'no'}</td>"
        "</tr>"
        for entry in selection.ranking
    )
    table = (
        "<details><summary>Table view: greedy ranking with costs and "
        "coverage</summary><div style=\"overflow-x:auto\"><table>"
        '<tr><th class="name">workload</th><th>cost s</th>'
        "<th>cum cost s</th><th>gain</th><th>cum coverage</th>"
        f"<th>selected</th></tr>{rows}</table></div></details>"
    )
    return f'<div class="card">{_budget_curve_svg(selection)}</div>{table}'


def _kiviat_cards(subsetting: SubsettingResult | None) -> str:
    if subsetting is None or not subsetting.kiviat:
        return '<p class="sub">Subsetting unavailable for this suite.</p>'
    cards = [
        '<div class="card">'
        f"<h3>{_esc(diagram.workload)}</h3>"
        f"{_kiviat_svg(diagram)}"
        f"<p>dominant: {_esc(diagram.dominant_axis)}</p>"
        "</div>"
        for diagram in subsetting.kiviat
    ]
    return f'<div class="cards">{"".join(cards)}</div>'


# -- continuous-profiling panel ------------------------------------------------

#: Flamegraph geometry: full-width rows of fixed height, pruned below
#: one pixel so the SVG stays bounded no matter how many stacks merged.
_FLAME_W = 1040.0
_FLAME_ROW_H = 17.0
_FLAME_MAX_DEPTH = 48
_FLAME_MIN_PX = 1.0
#: Approximate monospace advance at font-size 10 — labels are cut to fit.
_FLAME_CHAR_PX = 6.2

def _flame_tree(doc: dict) -> tuple[dict, int]:
    """Aggregate stacks into a nested ``{segment: [count, children]}``.

    Each path is the span segments (or the unattributed root) followed
    by the frame labels root-first, so the icicle groups frames under
    the span that owned them — the same shape as the collapsed output.
    """
    tree: dict = {}
    total = 0
    for spans, frames, count, idle in _iter_stacks(doc):
        path = _stack_root(spans, idle) + frames
        total += count
        node = tree
        for segment in path:
            entry = node.setdefault(segment, [0, {}])
            entry[0] += count
            node = entry[1]
    return tree, total


def _flame_category(root_segment: str) -> str:
    if root_segment == UNATTRIBUTED_IDLE:
        return "idle"
    if root_segment == UNATTRIBUTED_BUSY:
        return "untracked"
    return "span"


def _flamegraph_svg(doc: dict) -> str:
    """The merged profile as a no-script SVG icicle (root on top).

    Rect widths are sample shares of the window; ``<title>`` children
    carry the tooltips, so the chart needs zero JavaScript.  Subtrees
    narrower than one pixel are pruned (their samples still widen every
    ancestor, so nothing is miscounted — only unreadably small rects
    are dropped).
    """
    tree, total = _flame_tree(doc)
    if not total:
        return ""
    rects: list[str] = []
    max_depth = 0

    def render(node: dict, x: float, depth: int, category: str | None) -> None:
        nonlocal max_depth
        for name, (count, children) in sorted(
            node.items(), key=lambda kv: (-kv[1][0], kv[0])
        ):
            width = count / total * _FLAME_W
            if width < _FLAME_MIN_PX or depth >= _FLAME_MAX_DEPTH:
                x += width
                continue
            max_depth = max(max_depth, depth)
            cat = category or _flame_category(name)
            classes = f"fl-{cat}"
            if ".py:" in name or name.startswith("<"):
                classes += " fl-frame"
            y = depth * _FLAME_ROW_H
            tip = f"{name} — {count} samples ({count / total:.1%})"
            rects.append(
                f'<rect x="{x:.2f}" y="{y:.1f}" width="{max(width - 0.4, 0.4):.2f}" '
                f'height="{_FLAME_ROW_H - 1:.1f}" rx="1" class="{classes}">'
                f"<title>{_esc(tip)}</title></rect>"
            )
            label_room = int(width / _FLAME_CHAR_PX)
            if label_room >= 4:
                label = name if len(name) <= label_room else name[: label_room - 1] + "…"
                rects.append(
                    f'<text x="{x + 3:.2f}" y="{y + _FLAME_ROW_H - 5:.1f}" '
                    f'class="fl-label">{_esc(label)}</text>'
                )
            render(children, x, depth + 1, cat)
            x += width

    render(tree, 0.0, 0, None)
    height = (max_depth + 1) * _FLAME_ROW_H + 2
    return (
        f'<svg viewBox="0 0 {_FLAME_W:.0f} {height:.0f}" '
        f'width="{_FLAME_W:.0f}" height="{height:.0f}" role="img" '
        f'aria-label="fleet CPU flamegraph">\n'
        f"  <title>Fleet CPU profile: {total} samples; each row is one "
        f"stack level, width is the sample share</title>\n"
        f"  {''.join(rects)}\n</svg>"
    )


def _profile_tables(doc: dict, top: int = 20) -> str:
    """The flamegraph's accessible twin: span paths and hot frames."""
    samples = max(1, int(doc.get("samples", 0)))
    frame_counts: dict[str, int] = {}
    for spans, frames, count, idle in _iter_stacks(doc):
        if frames and not (idle and not spans):
            leaf = frames[-1]
            frame_counts[leaf] = frame_counts.get(leaf, 0) + count
    span_rows = "".join(
        f'<tr><td class="name">{_esc(row["path"])}</td>'
        f'<td>{row["samples"]}</td>'
        f"<td>{row['samples'] / samples:.1%}</td></tr>"
        for row in span_totals(doc, top=top)
    )
    frame_rows = "".join(
        f'<tr><td class="name">{_esc(label)}</td><td>{count}</td>'
        f"<td>{count / samples:.1%}</td></tr>"
        for label, count in sorted(
            frame_counts.items(), key=lambda kv: (-kv[1], kv[0])
        )[:top]
    )
    return (
        "<details><summary>Table view: samples per span path and hottest "
        'busy frames</summary><div style="overflow-x:auto">'
        '<table><tr><th class="name">span path</th><th>samples</th>'
        f"<th>share</th></tr>{span_rows}</table>"
        '<table style="margin-top:10px">'
        '<tr><th class="name">leaf frame (busy samples)</th>'
        f"<th>samples</th><th>share</th></tr>{frame_rows}</table>"
        "</div></details>"
    )


def _profile_section(doc: dict | None) -> str:
    """The dashboard's continuous-profiling panel for one merged profile."""
    if not doc or not doc.get("samples"):
        return (
            '<p class="sub">No profile attached — capture one with '
            "<code>repro profile --out profile.json</code> (or "
            "<code>GET /profile?format=flame</code>) while the fleet is "
            "working.</p>"
        )
    stats = attribution(doc)
    processes = doc.get("processes") or []
    roles: dict[str, int] = {}
    for process in processes:
        role = str(process.get("role", "?"))
        roles[role] = roles.get(role, 0) + 1
    provenance = ", ".join(
        f"{count} {role}" for role, count in sorted(roles.items())
    )
    summary = (
        f"{doc['samples']} samples over {float(doc.get('duration_s', 0.0)):.2f}s "
        f"({_esc(doc.get('mode', 'wall'))} clock, "
        f"{float(doc.get('interval_ms', 0.0)):g}ms interval"
        + (f"; {provenance}" if provenance else "")
        + f") · span attribution {stats['fraction']:.1%} of busy samples"
    )
    legend = (
        '<p class="legend">'
        '<span class="swatch" style="background:var(--series-1)"></span>'
        "span-attributed"
        '<span class="swatch" style="background:var(--series-2);opacity:.6">'
        "</span>untracked busy"
        '<span class="swatch" style="background:var(--muted);opacity:.5">'
        "</span>idle (parked threads)</p>"
    )
    return (
        f'<p class="sub">{summary}</p>'
        f'<div class="card" style="overflow-x:auto">{_flamegraph_svg(doc)}'
        f"{legend}</div>{_profile_tables(doc)}"
    )


def render_profile_page(
    doc: dict, title: str = "repro fleet CPU profile"
) -> str:
    """One merged profile document as a self-contained flamegraph page.

    Serves ``GET /profile?format=flame`` and ``repro profile --flame``:
    the same zero-script, inline-CSS contract as the dashboard — the
    file renders identically offline, light and dark.
    """
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_esc(title)}</title>
<style>{_STYLE}</style>
</head>
<body class="viz-root">
<h1>{_esc(title)}</h1>
<p class="sub">Statistical stack samples across every fleet process,
charged to the span path that owned each thread — root rows are spans
(or the unattributed buckets), nested rows are Python frames.</p>
{_profile_section(doc)}
</body>
</html>
"""


def render_dashboard(
    matrix: WorkloadMetricMatrix,
    characterizations: Sequence[WorkloadCharacterization] = (),
    subsetting: SubsettingResult | None = None,
    title: str = "repro characterization dashboard",
    budgeted=None,
    profile: dict | None = None,
) -> str:
    """Render the suite as one self-contained HTML page.

    Args:
        matrix: The workload × metric matrix to chart.
        characterizations: Per-workload detail; entries carrying a
            :class:`~repro.obs.timeline.TimelineSeries` get a timeline
            card.
        subsetting: The subsetting result whose Kiviat diagrams (Fig. 6)
            to include; ``None`` omits that section.
        title: Page title.
        budgeted: A :class:`repro.subset.BudgetedSelection`; when given,
            a coverage-vs-budget panel charts the greedy ranking's
            nested prefixes with the chosen operating point.
        profile: A merged profile document (``repro profile --out`` /
            ``GET /profile``); when given, a continuous-profiling panel
            renders it as a span-attributed flamegraph.

    Returns:
        A complete HTML document with all assets inline — no scripts,
        no external URLs.
    """
    with_timelines = sum(
        1 for c in characterizations if c.timeline is not None
    )
    subset_names = (
        ", ".join(subsetting.representative_subset) if subsetting else "—"
    )
    ramp = _diverging_ramp(_DIVERGING_LIGHT)
    legend = (
        '<p class="legend">z-score'
        f'<span class="swatch" style="background:{ramp[-_Z_BUCKETS]}"></span>'
        "below mean"
        f'<span class="swatch" style="background:{ramp[0]}"></span>mean'
        f'<span class="swatch" style="background:{ramp[_Z_BUCKETS]}"></span>'
        "above mean</p>"
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_esc(title)}</title>
<style>{_STYLE}
{_heatmap_classes()}
</style>
</head>
<body class="viz-root">
<h1>{_esc(title)}</h1>
<p class="sub">{len(matrix.workloads)} workloads × {len(METRIC_NAMES)} metrics
 · {with_timelines} with timelines · representative subset: {_esc(subset_names)}</p>

<h2>Workload timelines</h2>
<p class="sub">Records committed over the run (shaded region = ramp-up window,
discarded from steady-state rates) and per-phase simulation-window ILP.</p>
{_timeline_cards(characterizations)}

<h2>Suite heatmap</h2>
<p class="sub">Column z-scores of every metric across the suite — the exact
normalization the PCA and clustering consume.</p>
<div class="card">{_heatmap_svg(matrix)}{legend}</div>

<h2>Coverage vs. budget</h2>
<p class="sub">PC-space facility-location coverage bought by each additional
second of simulated runtime (greedy ranking; prefixes nest, so the curve is
the whole budget sweep); the large marker is the chosen operating point.</p>
{_budget_section(budgeted)}

<h2>Representative subset (Kiviat)</h2>
<p class="sub">Each chosen representative's principal-component profile;
diverse dominant axes are what make the subset representative.</p>
{_kiviat_cards(subsetting)}

<h2>Continuous profiling</h2>
{_profile_section(profile)}

<h2>Data</h2>
{_matrix_table(matrix)}
</body>
</html>
"""
