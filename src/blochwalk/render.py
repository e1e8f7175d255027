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
# cells per block of theta rows whose rects are built at once (at least one
# row), as many as in a chunk of the CSV writer
_BLOCK_CELLS = 4096
_PAD = b"\0"
# the three hex digits of each 12-bit half of a 0xRRGGBB fill, in order
_HEX3 = np.stack(np.meshgrid(*[np.frombuffer(b"0123456789abcdef", np.uint8)]
                             * 3, indexing="ij"), axis=-1).reshape(-1, 3)


def _table(texts) -> np.ndarray:
    """The ASCII texts as the rows of a uint8 array, each padded to the
    longest with _PAD bytes."""
    texts = [text.encode() for text in texts]
    width = max(map(len, texts))
    return np.frombuffer(b"".join(text.ljust(width, _PAD) for text in texts),
                         np.uint8).reshape(len(texts), width)


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
            del chunk, data     # not held while the next chunk is built
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


def render_heatmap_svg(grid: WignerGrid, path, indexing: SiteIndexing) -> str:
    """Write an SVG heatmap of W(theta, phi) and return its sha256.

    phi runs left to right over [-pi, pi), theta top to bottom over [0, pi];
    the color scale is symmetric about zero (bounds +/- max|W|) so negative
    interference fringes stand out.  phi ticks are drawn at the ring's site
    centers n * delta_phi.  A grid holding NaN or +/-inf raises ValueError
    before anything is written.
    """
    width, height = 720, 400
    margin_l, margin_r, margin_t, margin_b = 50, 20, 16, 36
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    n_theta, n_phi = grid.values.shape
    # max and min propagate NaN and reach +/-inf, so no whole-grid mask or
    # |W| copy is made; abs() turns a -0.0 maximum into 0.0
    top, bottom = float(grid.values.max()), float(grid.values.min())
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise ValueError("Wigner grid holds non-finite values")
    vmax = abs(max(top, -bottom))

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

    for n in indexing.site_numbers:
        if 2 * n >= indexing.sites:         # phi_n >= pi, in exact integers
            continue
        phi_n = n * indexing.delta_phi
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
    # from column k has that column's x and the width n dx + 0.05.  Each
    # piece of a rect's line is formatted once, per column, run length or
    # row, into a padded byte table; a block of rows gathers its rects'
    # lines from the tables and is written with the pad bytes deleted.
    dx = plot_w / n_phi
    pieces = [
        _table(f'<rect x="{margin_l + k * dx:.2f}" y="' for k in range(n_phi)),
        _table(f"{y0:.2f}" for y0 in ys[:-1]),
        _table(f'" width="{n * dx + 0.05:.2f}" height="'
               for n in range(n_phi + 1)),
        _table(f'{y1 - y0 + 0.05:.2f}" fill="#' for y0, y1 in zip(ys, ys[1:])),
        _HEX3, _HEX3, _table(['"/>\n'])]
    edges = np.cumsum([0] + [table.shape[1] for table in pieces])
    step = max(1, _BLOCK_CELLS // n_phi)

    def rect_lines(rows: slice) -> np.ndarray:
        colors = _cell_colors(grid.values[rows], vmax)
        starts = np.flatnonzero(np.diff(colors, prepend=-1))  # in the block
        fills = np.take(colors, starts)
        row = rows.start + starts // n_phi
        keys = (starts % n_phi, row, np.diff(starts, append=colors.size), row,
                fills >> 12, fills & 0xFFF, 0)
        lines = np.empty((len(starts), edges[-1]), np.uint8)
        for table, key, a, b in zip(pieces, keys, edges, edges[1:]):
            lines[:, a:b] = table[key]
        return lines

    def chunks():
        yield "\n".join(head) + "\n"
        for i in range(0, n_theta, step):
            rows = slice(i, min(i + step, n_theta))
            yield rect_lines(rows).tobytes().translate(None, _PAD)
        yield "\n".join(tail) + "\n"

    return write_hashed(path, chunks())
