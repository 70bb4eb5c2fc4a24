"""Terminal plotting: render the paper's figures as ASCII charts.

Keeps the reproduction dependency-free: concurrency timelines (Fig. 6/19),
launch CDFs (Fig. 20), and speedup bars (Fig. 15) render directly in the
terminal.  ``examples/threshold_study.py`` and the CLI use these.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import HarnessError


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    *,
    width: int = 40,
    title: str = "",
    reference: float = None,
) -> str:
    """Horizontal bar chart; optional reference line value marked with '|'."""
    if len(labels) != len(values):
        raise HarnessError("labels and values must align")
    if not values:
        raise HarnessError("nothing to plot")
    peak = max(max(values), reference or 0.0)
    if peak <= 0:
        raise HarnessError("bar chart needs a positive maximum")
    label_width = max(len(str(label)) for label in labels)
    lines = [title] if title else []
    ref_col = None
    if reference is not None:
        ref_col = round(width * reference / peak)
    for label, value in zip(labels, values):
        length = round(width * value / peak)
        bar = list("#" * length + " " * (width - length))
        if ref_col is not None and 0 <= ref_col < width:
            bar[ref_col] = "|"
        lines.append(f"{str(label).ljust(label_width)}  {''.join(bar)} {value:.2f}")
    return "\n".join(lines)


def timeline(
    samples: Sequence[Tuple[float, float]],
    *,
    buckets: int = 60,
    height: int = 8,
    title: str = "",
) -> str:
    """Column chart of an (time, value) series, bucketed over the time axis."""
    if not samples:
        raise HarnessError("nothing to plot")
    t_end = max(t for t, _ in samples)
    if t_end <= 0:
        t_end = 1.0
    # Bucket by time, keeping each bucket's max (peaks matter for limits).
    values: List[float] = [0.0] * buckets
    for t, v in samples:
        idx = min(buckets - 1, int(buckets * t / t_end))
        values[idx] = max(values[idx], v)
    peak = max(values)
    lines = [title] if title else []
    if peak <= 0:
        lines.append("(flat zero series)")
        return "\n".join(lines)
    for row in range(height, 0, -1):
        threshold = peak * (row - 0.5) / height
        lines.append(
            f"{peak * row / height:8.1f} |"
            + "".join("#" if v >= threshold else " " for v in values)
        )
    lines.append(" " * 9 + "+" + "-" * buckets)
    lines.append(" " * 10 + f"0 .. {t_end:.0f} cycles")
    return "\n".join(lines)
