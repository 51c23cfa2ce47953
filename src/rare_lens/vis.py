"""Plot and heatmap writers with no plotting dependency: CSV, PGM (P2), SVG."""

from __future__ import annotations

from pathlib import Path

import numpy as np


def quantize(values: np.ndarray, maxval: int = 255) -> np.ndarray:
    """Linear map of a float matrix onto integer gray levels [0, maxval]."""
    arr = np.asarray(values, dtype=np.float64)
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        return np.zeros(arr.shape, dtype=np.int64)
    return np.rint((arr - lo) / (hi - lo) * maxval).astype(np.int64)


def write_pgm(path, values: np.ndarray, maxval: int = 255) -> np.ndarray:
    """Write a float matrix as an ASCII PGM heatmap; returns the gray levels."""
    gray = quantize(values, maxval)
    rows, cols = gray.shape
    lines = [f"P2\n{cols} {rows}\n{maxval}\n"]
    for r in range(rows):
        lines.append(" ".join(str(v) for v in gray[r]) + "\n")
    Path(path).write_text("".join(lines))
    return gray


def write_csv(path, header: list[str], rows: list[list]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_csv_matrix(path, matrix: np.ndarray) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.asarray(matrix):
            writer.writerow([repr(float(x)) for x in row])


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_frame(width: int, height: int, body: str, title: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" font-size="14">{title}</text>\n'
        f"{body}</svg>\n"
    )


def write_line_svg(path, series: dict[str, tuple[list, list]], title: str,
                   width: int = 480, height: int = 320) -> None:
    """Simple multi-series line chart; x and y are numeric lists per series."""
    pad = 45
    xs_all = [x for xs, _ in series.values() for x in xs]
    ys_all = [y for _, ys in series.values() for y in ys]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all + [0.0]), max(ys_all + [1.0])

    def px(x):
        return pad + (x - x0) / max(x1 - x0, 1e-12) * (width - 2 * pad)

    def py(y):
        return height - pad - (y - y0) / max(y1 - y0, 1e-12) * (height - 2 * pad)

    body = [
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
    ]
    for i, (name, (xs, ys)) in enumerate(series.items()):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        points = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
        body.append(f'<polyline fill="none" stroke="{color}" points="{points}"/>')
        body.append(
            f'<text x="{width - pad + 2}" y="{pad + 14 * i + 10}" font-size="10" '
            f'fill="{color}">{name}</text>'
        )
    Path(path).write_text(_svg_frame(width, height, "\n".join(body) + "\n", title))


def write_bar_svg(path, labels: list[str], values: list[float], title: str,
                  width: int = 480, height: int = 320) -> None:
    pad = 45
    vmax = max(max(values), 1e-12)
    slot = (width - 2 * pad) / max(len(values), 1)
    body = [
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>'
    ]
    for i, (label, value) in enumerate(zip(labels, values)):
        bar_h = (height - 2 * pad) * value / vmax
        x = pad + i * slot + slot * 0.15
        y = height - pad - bar_h
        body.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{slot * 0.7:.1f}" '
            f'height="{bar_h:.1f}" fill="{_SVG_COLORS[i % len(_SVG_COLORS)]}"/>'
        )
        body.append(
            f'<text x="{x + slot * 0.35:.1f}" y="{height - pad + 14}" '
            f'text-anchor="middle" font-size="9">{label}</text>'
        )
        body.append(
            f'<text x="{x + slot * 0.35:.1f}" y="{y - 4:.1f}" '
            f'text-anchor="middle" font-size="9">{value:.2f}</text>'
        )
    Path(path).write_text(_svg_frame(width, height, "\n".join(body) + "\n", title))
