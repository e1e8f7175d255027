"""SVG heatmaps of Wigner grids: equirectangular theta-phi projection with
a diverging colormap symmetric about W = 0, no imaging dependencies."""

from __future__ import annotations

import math

import numpy as np

from .coherent import SiteIndexing
from .wigner import WignerGrid

__all__ = ["render_heatmap_svg"]

# diverging blue -> white -> red anchors (negative, zero, positive)
_NEG = (33, 102, 172)
_MID = (247, 247, 247)
_POS = (178, 24, 43)


def _lerp(a, b, t: float) -> tuple[int, int, int]:
    return tuple(int(round(a[i] + (b[i] - a[i]) * t)) for i in range(3))


def _color(value: float, vmax: float) -> str:
    if vmax <= 0.0:
        r, g, b = _MID
    else:
        t = max(-1.0, min(1.0, value / vmax))
        if t >= 0.0:
            r, g, b = _lerp(_MID, _POS, t)
        else:
            r, g, b = _lerp(_MID, _NEG, -t)
    return f"#{r:02x}{g:02x}{b:02x}"


def render_heatmap_svg(grid: WignerGrid, path,
                       indexing: SiteIndexing | None = None) -> None:
    """Write an SVG heatmap of W(theta, phi).

    phi runs left to right over [-pi, pi), theta top to bottom over [0, pi];
    the color scale is symmetric about zero (bounds +/- max|W|) so negative
    interference fringes stand out.  When a site ring is given, phi ticks
    are drawn at the site centers n * delta_phi.
    """
    width, height = 720, 400
    margin_l, margin_r, margin_t, margin_b = 50, 20, 16, 36
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    n_theta = len(grid.theta_nodes)
    n_phi = len(grid.phi_nodes)
    vmax = float(np.abs(grid.values).max())

    # cell edges: uniform in phi; theta cells split midway between nodes
    theta_edges = np.empty(n_theta + 1)
    theta_edges[0] = 0.0
    theta_edges[-1] = math.pi
    theta_edges[1:-1] = 0.5 * (grid.theta_nodes[:-1] + grid.theta_nodes[1:])

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">')
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')

    dx = plot_w / n_phi
    for i in range(n_theta):
        y0 = margin_t + plot_h * theta_edges[i] / math.pi
        y1 = margin_t + plot_h * theta_edges[i + 1] / math.pi
        row = grid.values[i]
        for k in range(n_phi):
            x0 = margin_l + k * dx
            out.append(
                f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{dx + 0.05:.2f}" '
                f'height="{y1 - y0 + 0.05:.2f}" fill="{_color(row[k], vmax)}"/>')

    # frame and axis labels
    out.append(
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black" stroke-width="1"/>')
    out.append(
        f'<text x="{margin_l + plot_w / 2:.1f}" y="{height - 6}" '
        f'font-size="13" text-anchor="middle">phi (rad)</text>')
    out.append(
        f'<text x="14" y="{margin_t + plot_h / 2:.1f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 14 '
        f'{margin_t + plot_h / 2:.1f})">theta (rad)</text>')

    if indexing is not None:
        for n in indexing.site_numbers:
            phi_n = n * indexing.delta_phi
            if not -math.pi <= phi_n < math.pi:
                continue
            x = margin_l + plot_w * (phi_n + math.pi) / (2.0 * math.pi)
            y = margin_t + plot_h
            out.append(
                f'<line x1="{x:.2f}" y1="{y}" x2="{x:.2f}" y2="{y + 5}" '
                f'stroke="black" stroke-width="1"/>')
            out.append(
                f'<text x="{x:.2f}" y="{y + 17}" font-size="10" '
                f'text-anchor="middle">{int(n)}</text>')

    out.append(
        f'<text x="{margin_l}" y="{margin_t - 4}" font-size="11">'
        f'W range +/- {vmax:.6e}</text>')
    out.append("</svg>")

    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
