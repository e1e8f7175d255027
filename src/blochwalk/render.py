"""SVG heatmaps of Wigner grids: equirectangular theta-phi projection with
a diverging colormap symmetric about W = 0, no imaging dependencies.  Each
theta row is painted as runs of equal colour, one <rect> per run, spanning
the run's cells."""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .coherent import SiteIndexing
from .wigner import WignerGrid

__all__ = ["render_heatmap_svg", "write_hashed"]

# diverging blue -> white -> red anchors (negative, zero, positive), one
# (R, G, B) each
_NEG = (33.0, 102.0, 172.0)
_MID = (247.0, 247.0, 247.0)
_POS = (178.0, 24.0, 43.0)


def write_hashed(path, chunks) -> str:
    """Write the chunks (ASCII text or bytes) to path as they come and
    return the sha256 of the bytes written, so no artifact is read back to
    hash it."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            data = chunk.encode() if isinstance(chunk, str) else chunk
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
    up, size = t >= 0.0, np.abs(t)
    colors = np.zeros(values.shape, np.int64)
    for shift, neg, mid, pos in zip((16, 8, 0), _NEG, _MID, _POS):
        channel = np.rint(mid + np.where(up, pos - mid, neg - mid) * size)
        colors |= channel.astype(np.int64) << shift
    return colors


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
    n_theta, n_phi = grid.values.shape
    if not np.isfinite(grid.values).all():
        raise ValueError("Wigner grid holds non-finite values")
    vmax = float(np.abs(grid.values).max())

    # cell edges: uniform in phi; theta cells split midway between nodes
    mids = 0.5 * (grid.theta_nodes[:-1] + grid.theta_nodes[1:])
    ys = (margin_t + plot_h * np.r_[0.0, mids, math.pi] / math.pi).tolist()

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
            tail += [
                f'<line x1="{x:.2f}" y1="{y}" x2="{x:.2f}" y2="{y + 5}" '
                f'stroke="black" stroke-width="1"/>',
                f'<text x="{x:.2f}" y="{y + 17}" font-size="10" '
                f'text-anchor="middle">{int(n)}</text>']

    tail += [f'<text x="{margin_l}" y="{margin_t - 4}" font-size="11">'
             f'W range +/- {vmax:.6e}</text>', "</svg>"]

    # one <rect> per run of equal colour along a theta row: a run of n cells
    # from column k has that column's x and the width n dx + 0.05.  The x
    # attributes are formatted once per column and the widths once per run
    # length; a row joins its runs into a template filled by one %-format.
    colors = _cell_colors(grid.values, vmax)
    dx = plot_w / n_phi
    x_attrs = [f'<rect x="{margin_l + k * dx:.2f}" y="' for k in range(n_phi)]
    w_attrs = [f'" width="{n * dx + 0.05:.2f}" height="'
               for n in range(n_phi + 1)]
    starts = np.flatnonzero(np.diff(colors, prepend=-1))   # flat cell index
    runs = list(zip((starts % n_phi).tolist(),
                    np.diff(starts, append=colors.size).tolist()))
    fills = np.take(colors, starts).tolist()
    rows = np.searchsorted(starts, n_phi * np.arange(n_theta + 1)).tolist()

    def chunks():
        yield "\n".join(head) + "\n"
        for a, b, y0, y1 in zip(rows, rows[1:], ys, ys[1:]):
            y, h = f'{y0:.2f}', f'{y1 - y0 + 0.05:.2f}" fill="#%06x"/>\n'
            row = "".join([x_attrs[k] + y + w_attrs[n] + h
                           for k, n in runs[a:b]])
            yield row % tuple(fills[a:b])
        yield "\n".join(tail) + "\n"

    return write_hashed(path, chunks())
