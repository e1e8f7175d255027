"""Every artifact's bytes: CSV files, SVG heatmaps of Wigner grids and the
JSON manifest.

Output conventions: CSV with one header line, %.12e numbers, comma
separator, LF endings; JSON manifest with sorted keys, written last,
listing every emitted file with the sha256 its emitter took of the bytes
written.  Every CSV number is an exact vectorized %.12e (`_sci_cells`):
the same bytes as Python's `%`, which formats the values it cannot
certify.  Every CSV and SVG is written by one loop, `_write_rows`.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .coherent import SiteIndexing
from .wigner import WignerGrid

__all__ = ["render_heatmap_svg", "write_hashed", "write_manifest",
           "write_marginal_csv", "write_sigma_csv", "write_sites_csv",
           "write_wigner_csv"]

# pads each formatted text to the width of its table; never written
_PAD = b"\0"
# cells per block of rows that a writer lays out at once (at least one row)
_BLOCK_CELLS = 4096


def _table(texts, width: int = 0) -> np.ndarray:
    """The ASCII texts as the rows of a uint8 array, each padded with _PAD
    bytes to the longest text, and at least to width."""
    texts = [text.encode() for text in texts]
    width = max([width, *map(len, texts)])
    return np.frombuffer(b"".join(text.ljust(width, _PAD) for text in texts),
                         np.uint8).reshape(len(texts), width)


def _power_table(alphabet: bytes, places: int) -> np.ndarray:
    """(len(alphabet)^places, places) uint8: every text of `places`
    characters from the alphabet, in the order of the Cartesian power."""
    chars = np.frombuffer(alphabet, np.uint8)
    grids = np.meshgrid(*[chars] * places, indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, places)


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


def _write_rows(path, head, n_rows: int, row_cells: int, lines,
                tail="") -> str:
    """Write head, then the n_rows rows of row_cells cells in blocks of at
    most _BLOCK_CELLS cells (at least one row), each the padded uint8 text
    `lines(rows)` with the pad bytes deleted, then tail; return the sha256."""
    step = max(1, _BLOCK_CELLS // row_cells)

    def chunks():
        yield head
        for i in range(0, n_rows, step):
            rows = slice(i, min(i + step, n_rows))
            yield lines(rows).tobytes().translate(None, _PAD)
        yield tail

    return write_hashed(path, chunks())


# fitted to tracemalloc peaks: what a block holds per cell while it is laid
# out and written (a CSV cell, and an SVG cell at one rect a cell), and what
# the manifest holds, with its JSON text, per file and per step
_CSV_CELL_BYTES, _SVG_CELL_BYTES = 160, 224
_FILE_ENTRY_BYTES, _STEP_ENTRY_BYTES = 700, 150


def emit_bytes(n_phi: int, svg: bool, files: int, steps: int) -> int:
    """The widest block of a run whose grids have n_phi columns (0 without),
    _BLOCK_CELLS cells or one Wigner CSV line, and its manifest's entries."""
    cell = _SVG_CELL_BYTES if svg else _CSV_CELL_BYTES
    return (cell * max(_BLOCK_CELLS, 2 + n_phi) + _FILE_ENTRY_BYTES * files
            + _STEP_ENTRY_BYTES * steps)


def write_manifest(manifest: dict, path) -> None:
    """The manifest as JSON: sorted keys, two-space indent, LF endings."""
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                    newline="\n")


# A `%.12e` cell is 20 bytes, five 4-byte words: [sign d0 . d1] [d2..d5]
# [d6..d9] [d10 d11 d12 e] [exponent sign, 2 or 3 digits]; bytes a value
# does not use hold _PAD.
_CELL = 20
_LEAD = _table(f"{sign}{k // 10}.{k % 10}" for sign in (_PAD.decode(), "-")
               for k in range(100)).view(np.uint32).ravel()
_FOUR = _power_table(b"0123456789", 4).view(np.uint32).ravel()
_THREE = np.c_[_power_table(b"0123456789", 3),
               np.full(1000, ord("e"), np.uint8)].view(np.uint32).ravel()
# the fast path's decimal exponents, and 10^(12 - e) for each, correctly
# rounded
_E_MIN, _E_MAX = -281, 281
_EXP = _table((f"{e:+03d}" for e in range(_E_MIN, _E_MAX + 1)),
              4).view(np.uint32).ravel()
_SCALE = np.array([float(f"1e{12 - e}") for e in range(_E_MIN, _E_MAX + 1)])


def _sci_cells(x: np.ndarray) -> np.ndarray:
    """`%.12e` of every value of x as a (*x.shape, 20) uint8 array of ASCII
    cells, unused bytes _PAD; exactly the bytes `b"%.12e" % v` gives.

    Fast path, for 1e-280 < |x| < 1e280: with e = floor(log10 |x|),
    corrected once so that m = |x| 10^(12 - e) lies in [1e12, 1e13), the
    13 digits are those of n = rint(m) (n = 1e13 carries into e).  The
    scale 10^(12 - e) is a correctly rounded table entry and the product
    is rounded once, so |m - exact| <= 2u m < 2^-52 1e13 < 0.0023; n is the
    exactly rounded mantissa whenever m lies at least 0.0023 from a
    half-integer, which the check |m - n| <= 0.4977 admits.  Exact float
    floor divisions split n into digit groups, which index tables of their
    text.  Every other value (zero, NaN, +-inf, subnormals, values beyond
    1e+-280 and near-halves) is formatted by Python's `%`.  The sign is
    taken from the sign bit, so -0.0 keeps its minus sign.
    """
    shape = np.shape(x)
    x = np.ravel(x)
    a = np.abs(x)
    fast = (a > 1e-280) & (a < 1e280)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    m = a * _SCALE[e - _E_MIN]
    e += np.where(m < 1e12, -1, m >= 1e13)
    m = a * _SCALE[e - _E_MIN]
    n = np.rint(m)
    fast &= np.abs(m - n) <= 0.4977
    carry = n >= 1e13
    e += carry
    n[carry] = 1e12
    # n = lead 10^11 + b 10^7 + c 10^3 + d, every quotient exact
    lead = np.floor(n / 1e11)
    n -= 1e11 * lead
    b = np.floor(n / 1e7)
    n -= 1e7 * b
    c = np.floor(n / 1e3)
    n -= 1e3 * c
    words = np.stack((_LEAD[lead.astype(np.intp) + 100 * np.signbit(x)],
                      _FOUR[b.astype(np.intp)], _FOUR[c.astype(np.intp)],
                      _THREE[n.astype(np.intp)], _EXP[e - _E_MIN]), axis=1)
    cells = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells[slow] = _table(["%.12e" % v for v in x[slow].tolist()], _CELL)
    return cells.reshape(*shape, _CELL)


def _csv_lines(*blocks) -> np.ndarray:
    """The padded CSV lines of blocks of fixed-width cells, one line per
    row of the first block; each block holds a whole number of cells per
    row, row-major.  Each cell is followed by a comma, the last of a line
    by an LF."""
    n_rows = len(blocks[0])
    blocks = [b.reshape(n_rows, -1, _CELL) for b in blocks]
    fields = sum(b.shape[1] for b in blocks)
    lines = np.empty((n_rows, fields, _CELL + 1), np.uint8)
    np.concatenate(blocks, axis=1, out=lines[..., :-1])
    lines[..., -1] = ord(",")
    lines[:, -1, -1] = ord("\n")
    return lines


def write_wigner_csv(grid, path) -> str:
    """A `theta,weight_theta,<phi_0>,...,<phi_{n-1}>` header, then one line
    per theta node: theta, its weight and the row's W at every phi node.
    Every number is the exact `%.12e` of `_sci_cells`, so the long
    `theta,phi,weight_theta,W` table rebuilds exactly.  Returns the
    sha256."""
    n_theta, n_phi = grid.values.shape
    heads = _sci_cells(np.c_[grid.theta_nodes, grid.theta_weights])
    phis = _csv_lines(_sci_cells(grid.phi_nodes)[None]).tobytes()
    header = b"theta,weight_theta," + phis.translate(None, _PAD)
    return _write_rows(path, header, n_theta, 2 + n_phi, lambda r: _csv_lines(
        heads[r], _sci_cells(grid.values[r])))


def write_marginal_csv(dist, indexing: SiteIndexing, path) -> str:
    """One `phi,P,site_index,site_prob` line per phi node, the site fields
    blank off the site centers; returns the sha256.  Site n's center
    2 pi n/L is node j = n_phi (L + 2n)/(2L) mod n_phi of the nodes
    -pi + 2 pi j/n_phi exactly when 2L divides n_phi (L + 2n)."""
    density = dist.density              # a PhiDistribution sums it anew
    n_phi, sites = len(dist.phi_nodes), indexing.sites
    node, off = np.divmod(n_phi * (sites + 2 * dist.site_numbers), 2 * sites)
    node %= n_phi
    # the centered sites by node, ascending (only n = L/2 wraps, to node 0)
    order = np.flatnonzero(off == 0)[np.argsort(node[off == 0])]
    node = node[order]
    site_cells = np.stack(
        (_table(["%d" % n for n in dist.site_numbers[order].tolist()], _CELL),
         _sci_cells(dist.site_probabilities[order])), axis=1)

    def lines(rows):
        lo, hi = np.searchsorted(node, (rows.start, rows.stop))
        fields = np.zeros((rows.stop - rows.start, 2, _CELL), np.uint8)
        fields[node[lo:hi] - rows.start] = site_cells[lo:hi]  # blank: _PAD
        return _csv_lines(
            _sci_cells(np.c_[dist.phi_nodes[rows], density[rows]]), fields)

    return _write_rows(path, "phi,P,site_index,site_prob\n", n_phi, 4, lines)


def write_sigma_csv(table, path) -> str:
    """One `k,sigma_coherent,sigma_ideal` line per row of the (steps, 3)
    table; returns the sha256."""
    table = np.asarray(table, float)    # %d prints each k < 2^53 exactly
    return _write_rows(
        path, "k,sigma_coherent,sigma_ideal\n", len(table), 3,
        lambda rows: _csv_lines(
            _table(["%d" % k for k in table[rows, 0].tolist()], _CELL),
            _sci_cells(table[rows, 1:])))


def write_sites_csv(probabilities, indexing: SiteIndexing, path,
                    header="k,site_index,phi,site_prob") -> str:
    """One line per site of every step k, from the (steps, sites) array of
    probabilities; returns the sha256."""
    flat = np.reshape(probabilities, -1)
    numbers = indexing.site_numbers
    site_cells = np.stack(
        (_table(["%d" % n for n in numbers.tolist()], _CELL),
         _sci_cells(numbers * indexing.delta_phi)), axis=1)

    def lines(rows):
        step, site = divmod(np.arange(rows.start, rows.stop), indexing.sites)
        # the k cells of the block's steps only, each formatted once
        steps = _table(["%d" % k for k in range(step[0], step[-1] + 1)],
                       _CELL)
        return _csv_lines(steps[step - step[0]], site_cells[site],
                          _sci_cells(flat[rows]))

    return _write_rows(path, header + "\n", len(flat), 4, lines)


# diverging blue -> white -> red anchors (negative, zero, positive), one
# (R, G, B) each
_NEG = (33.0, 102.0, 172.0)
_MID = (247.0, 247.0, 247.0)
_POS = (178.0, 24.0, 43.0)
# the three hex digits of each 12-bit half of a 0xRRGGBB fill, in order
_HEX3 = _power_table(b"0123456789abcdef", 3)


def _cell_colors(values: np.ndarray, vmax: float) -> np.ndarray:
    """0xRRGGBB per cell: MID blended toward POS (W >= 0) or NEG by
    |W|/vmax, rounded half to even as Python's round() does."""
    t = (np.clip(values / vmax, -1.0, 1.0) if vmax > 0.0
         else np.zeros_like(values))
    up, size = t >= 0.0, np.abs(t)
    colors = np.zeros(values.shape, np.int64)
    for shift, neg, mid, pos in zip((16, 8, 0), _NEG, _MID, _POS):
        channel = np.rint(mid + np.where(up, pos - mid, neg - mid) * size)
        colors |= channel.astype(np.int64) << shift
    return colors


def render_heatmap_svg(grid: WignerGrid, path, indexing: SiteIndexing) -> str:
    """Write an SVG heatmap of W(theta, phi) and return its sha256.

    An equirectangular projection with no imaging dependencies: phi runs
    left to right over [-pi, pi), theta top to bottom over [0, pi], and
    each theta row is painted as runs of equal colour, one <rect> per run.
    The diverging colour scale is symmetric about zero (bounds +/- max|W|)
    so negative interference fringes stand out.  phi ticks are drawn at the ring's site
    centers n * delta_phi.  A grid holding NaN or +/-inf raises ValueError
    before anything is written.
    """
    width, height = 720, 400
    margin_l, margin_r, margin_t, margin_b = 50, 20, 16, 36
    plot_w, plot_h = width - margin_l - margin_r, height - margin_t - margin_b
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
    # lines from the tables.
    dx = plot_w / n_phi
    pieces = [
        _table(f'<rect x="{margin_l + k * dx:.2f}" y="' for k in range(n_phi)),
        _table(f"{y0:.2f}" for y0 in ys[:-1]),
        _table(f'" width="{n * dx + 0.05:.2f}" height="'
               for n in range(n_phi + 1)),
        _table(f'{y1 - y0 + 0.05:.2f}" fill="#' for y0, y1 in zip(ys, ys[1:])),
        _HEX3, _HEX3, _table(['"/>\n'])]
    edges = np.cumsum([0] + [table.shape[1] for table in pieces])

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

    return _write_rows(path, "\n".join(head) + "\n", n_theta, n_phi,
                       rect_lines, "\n".join(tail) + "\n")
