"""SVG heatmaps of Wigner grids: equirectangular theta-phi projection with
a diverging colormap symmetric about W = 0, no imaging dependencies."""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .coherent import SiteIndexing
from .wigner import WignerGrid

__all__ = ["render_heatmap_svg", "write_hashed"]

# diverging blue -> white -> red anchors (negative, zero, positive)
_NEG = np.array([33.0, 102.0, 172.0])
_MID = np.array([247.0, 247.0, 247.0])
_POS = np.array([178.0, 24.0, 43.0])


def write_hashed(path, chunks) -> str:
    """Write the ASCII text chunks to path as they come and return the
    sha256 of the bytes written, so no artifact is read back to hash it."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            data = chunk.encode()
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def _cell_colors(values: np.ndarray, vmax: float) -> np.ndarray:
    """0xRRGGBB per cell: MID blended toward POS (W >= 0) or NEG by
    |W|/vmax, rounded half to even as Python's round() does."""
    if vmax <= 0.0:
        t = np.zeros_like(values)
    else:
        t = np.clip(values / vmax, -1.0, 1.0)
    anchor = np.where((t >= 0.0)[..., None], _POS, _NEG)
    rgb = np.rint(_MID + (anchor - _MID) * np.abs(t)[..., None]).astype(np.int64)
    return (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]


def render_heatmap_svg(grid: WignerGrid, path,
                       indexing: SiteIndexing | None = None) -> str:
    """Write an SVG heatmap of W(theta, phi) and return its sha256.

    phi runs left to right over [-pi, pi), theta top to bottom over [0, pi];
    the color scale is symmetric about zero (bounds +/- max|W|) so negative
    interference fringes stand out.  When a site ring is given, phi ticks
    are drawn at the site centers n * delta_phi.  A grid holding NaN or
    +/-inf raises ValueError before anything is written.
    """
    width, height = 720, 400
    margin_l, margin_r, margin_t, margin_b = 50, 20, 16, 36
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    n_theta = len(grid.theta_nodes)
    n_phi = len(grid.phi_nodes)
    if not np.isfinite(grid.values).all():
        raise ValueError("Wigner grid holds non-finite values")
    vmax = float(np.abs(grid.values).max())

    # cell edges: uniform in phi; theta cells split midway between nodes
    theta_edges = np.empty(n_theta + 1)
    theta_edges[0] = 0.0
    theta_edges[-1] = math.pi
    theta_edges[1:-1] = 0.5 * (grid.theta_nodes[:-1] + grid.theta_nodes[1:])

    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>']

    # frame and axis labels
    tail = [
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black" stroke-width="1"/>',
        f'<text x="{margin_l + plot_w / 2:.1f}" y="{height - 6}" '
        f'font-size="13" text-anchor="middle">phi (rad)</text>',
        f'<text x="14" y="{margin_t + plot_h / 2:.1f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 14 '
        f'{margin_t + plot_h / 2:.1f})">theta (rad)</text>']

    if indexing is not None:
        for n in indexing.site_numbers:
            phi_n = n * indexing.delta_phi
            if not -math.pi <= phi_n < math.pi:
                continue
            x = margin_l + plot_w * (phi_n + math.pi) / (2.0 * math.pi)
            y = margin_t + plot_h
            tail.append(
                f'<line x1="{x:.2f}" y1="{y}" x2="{x:.2f}" y2="{y + 5}" '
                f'stroke="black" stroke-width="1"/>')
            tail.append(
                f'<text x="{x:.2f}" y="{y + 17}" font-size="10" '
                f'text-anchor="middle">{int(n)}</text>')

    tail.append(
        f'<text x="{margin_l}" y="{margin_t - 4}" font-size="11">'
        f'W range +/- {vmax:.6e}</text>')
    tail.append("</svg>")

    # one <rect> per cell, written a theta row at a time.  A row reads
    # x_0 yhw c_0 END x_1 yhw c_1 END ...: the x attributes are formatted once
    # per phi column, the row's y/width/height (yhw) joins them into a
    # template, and one %-format fills in the row's colours c_k.
    colors = _cell_colors(grid.values, vmax)
    dx = plot_w / n_phi
    cell_end = '%06x"/>\n'
    x_attrs = [f'<rect x="{margin_l + k * dx:.2f}" y="' for k in range(n_phi)]
    pieces = x_attrs[:1] + [cell_end + x for x in x_attrs[1:]] + [cell_end]
    cell_w = f'" width="{dx + 0.05:.2f}" height="'

    def chunks():
        yield "\n".join(head) + "\n"
        for i in range(n_theta):
            y0 = margin_t + plot_h * theta_edges[i] / math.pi
            y1 = margin_t + plot_h * theta_edges[i + 1] / math.pi
            yhw = f'{y0:.2f}{cell_w}{y1 - y0 + 0.05:.2f}" fill="#'
            yield yhw.join(pieces) % tuple(colors[i].tolist())
        yield "\n".join(tail) + "\n"

    return write_hashed(path, chunks())
