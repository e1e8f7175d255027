"""The Wigner CSV emitter writes the same bytes as its per-field reference
in `oracles`, its vectorized `%.12e` the same bytes as Python's, and the SVG
emitter paints the same cells as its per-cell reference, on real and
constructed grids."""

import dataclasses
import math
import re

import numpy as np
import pytest

from blochwalk import (CoinPulse, SiteIndexing, SpinQuantum, WalkSchedule,
                       evolve, initial_state, wigner_grid)
from blochwalk import cli
from blochwalk.cli import _sci_cells, write_wigner_csv
from blochwalk.render import render_heatmap_svg
from oracles import render_heatmap_svg_per_cell, write_wigner_csv_per_field

# channel steps of the colormap: POS - MID and NEG - MID per channel
_STEPS = (69, 223, 204, 214, 145, 75)


def _state(sites, two_j, steps):
    idx = SiteIndexing(sites)
    spin = SpinQuantum(two_j)
    states = evolve(initial_state(idx, spin), CoinPulse.hadamard(),
                    WalkSchedule.site_aligned(idx, steps))
    return idx, states[-1]


def _small_grid():
    idx, state = _state(6, 10, 2)
    return idx, wigner_grid(state, (12, 48))


def _ballistic():
    idx, state = _state(40, 200, 9)
    return idx, wigner_grid(state, (202, 320))


def _all_zero():
    idx, grid = _small_grid()
    return idx, dataclasses.replace(grid, values=np.zeros_like(grid.values))


def _colour_edges():
    """+/-vmax, +/-0.0, exact binary fractions of vmax whose colour channels
    land on x.5, and the nearest doubles around each (k + 1/2)/step."""
    idx, grid = _small_grid()
    vmax = 1.0
    t = [1.0, -1.0, 0.0, -0.0, 0.5, -0.5, 0.25, -0.25, 0.75, -0.75, 0.125]
    for step in _STEPS:
        for k in (0, 1, step // 2, step - 1):
            mid = (k + 0.5) / step
            t += [mid, np.nextafter(mid, 0.0), np.nextafter(mid, 1.0)]
    t = np.array(t)
    t = np.concatenate([t, -t])
    values = np.resize(vmax * t, grid.values.size).reshape(grid.values.shape)
    return idx, dataclasses.replace(grid, values=values)


def _phi_not_multiple_of_sites():
    idx, state = _state(6, 10, 3)
    return idx, wigner_grid(state, (12, 50))


def _with_neighbours(values):
    values = np.asarray(values, float)
    return np.concatenate((values, np.nextafter(values, 0.0),
                           np.nextafter(values, np.inf)))


def _powers_of_ten():
    """+-10^k with its neighbours and 10^k (1 +- j 1e-14), j <= 30, for
    |k| <= 300: near 1e280, log10 of a value 6e-14 below 10^k still rounds
    to k."""
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    near = np.outer(powers, 1.0 + 1e-14 * np.r_[-30:0, 1:31]).ravel()
    values = np.concatenate((_with_neighbours(powers), near))
    return np.concatenate((values, -values))


def _halves(count=2000, seed=7):
    """(n + 1/2) 10^j for 13-digit n, |j| <= 25, and the neighbours: the
    mantissas that round half way."""
    n = np.random.default_rng(seed).integers(10 ** 12, 10 ** 13, count)
    halves = np.outer(n + 0.5, [float(f"1e{j}") for j in range(-25, 26)])
    halves = _with_neighbours(halves.ravel())
    halves[::2] *= -1.0
    return halves


def _specials():
    tiny, huge = np.finfo(float).smallest_normal, np.finfo(float).max
    return np.array([0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, huge, -huge,
                     math.nan, -math.nan, math.inf, -math.inf, 1e279, 1e-279,
                     1e281, 1e-281, -1e279, -1e-281, 9.9999999999995e99,
                     9.9999999999995e-99, -9.9999999999995e99])


def _random_bits(count=10 ** 6, seed=11):
    bits = np.random.default_rng(seed).integers(0, 2 ** 64, count,
                                                dtype=np.uint64)
    return bits.view(np.float64)


def _format_edges():
    """The formatter's edge values as theta, phi, weight and W fields of a
    grid that the emitter writes in three chunks, the last one short."""
    idx, grid = _small_grid()
    edges = np.concatenate((_specials(), _powers_of_ten(), _halves(5)))
    n_theta, n_phi = 40, 250            # chunks of 16, 16 and 8 rows
    assert n_theta % (cli._CHUNK_CELLS // n_phi) != 0
    return idx, dataclasses.replace(
        grid, theta_nodes=np.resize(edges[::-1], n_theta),
        theta_weights=np.resize(edges[7:], n_theta),
        phi_nodes=np.resize(edges[3:], n_phi),
        values=np.resize(edges, (n_theta, n_phi)))


GRIDS = {"ballistic_N200": _ballistic, "all_zero": _all_zero,
         "colour_edges": _colour_edges,
         "n_phi_50_L6": _phi_not_multiple_of_sites}
# the SVG emitter refuses non-finite values, so the formatter's edges go to
# the CSV emitter only
CSV_GRIDS = {**GRIDS, "format_edges": _format_edges}


@pytest.fixture(scope="module", params=sorted(GRIDS))
def case(request):
    return GRIDS[request.param]()


@pytest.fixture(scope="module", params=sorted(CSV_GRIDS))
def csv_case(request):
    return CSV_GRIDS[request.param]()


_CELL = re.compile(r'<rect x="([^"]+)" y="([^"]+)" width="([^"]+)" '
                   r'height="([^"]+)" fill="(#[0-9a-f]{6})"/>')


def _split_cells(path):
    """(cell rects as (x, y, width, height, fill), every other line)."""
    cells, other = [], []
    for line in path.read_text().splitlines():
        match = _CELL.fullmatch(line)
        if match:
            cells.append(match.groups())
        else:
            other.append(line)
    return cells, other


@pytest.mark.parametrize("with_ticks", [True, False])
def test_svg_matches_per_cell_reference(case, with_ticks, tmp_path):
    """Expanded back into cells, the run rects cover every (theta, phi)
    cell of the per-cell reference exactly once, in its fill and at its
    x, y and height; each run is maximal and n dx + 0.05 wide, and every
    line that is not a cell rect is byte-identical to the reference."""
    idx, grid = case
    ticks = idx if with_ticks else None
    render_heatmap_svg(grid, tmp_path / "new.svg", ticks)
    render_heatmap_svg_per_cell(grid, tmp_path / "ref.svg", ticks)
    runs, other = _split_cells(tmp_path / "new.svg")
    ref_cells, ref_other = _split_cells(tmp_path / "ref.svg")
    assert other == ref_other

    n_phi = len(grid.phi_nodes)
    dx = 650 / n_phi
    columns = [x for x, *_ in ref_cells[:n_phi]]
    ref = {(y, x): (h, fill) for x, y, _, h, fill in ref_cells}
    assert len(ref) == grid.values.size

    painted = {}
    previous = None                 # (y, next column, fill) of the last run
    for x, y, width, height, fill in runs:
        k = columns.index(x)
        n = round((float(width) - 0.05) / dx)
        assert width == f"{n * dx + 0.05:.2f}"
        if previous is not None and previous[0] == y:
            assert k == previous[1]         # contiguous along the row
            assert fill != previous[2]      # maximal: neighbours differ
        else:
            assert k == 0
        previous = (y, k + n, fill)
        for col in columns[k:k + n]:
            assert (y, col) not in painted
            painted[y, col] = (height, fill)
    assert painted == ref


def test_wigner_csv_matches_per_field_reference(csv_case, tmp_path):
    _, grid = csv_case
    write_wigner_csv(grid, tmp_path / "new.csv")
    write_wigner_csv_per_field(grid, tmp_path / "ref.csv")
    assert ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


@pytest.mark.parametrize("values", [_random_bits, _powers_of_ten, _halves,
                                    _specials], ids=lambda f: f.__name__[1:])
def test_sci_cells_match_python_formatting(values):
    values = values()
    cells = _sci_cells(values)
    lines = np.c_[cells, np.full(len(cells), ord("\n"), np.uint8)]
    got = lines.tobytes().replace(b"\0", b"").split(b"\n")[:-1]
    want = [b"%.12e" % v for v in values.tolist()]
    assert len(got) == len(want)
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want)
             if g != w]
    assert wrong[:5] == []


def test_fast_path_formats_the_ballistic_grid(monkeypatch, tmp_path):
    """Every field of the ballistic k=9 grid goes through the vectorized
    formatter, and Python's `%` formats at most 5% of them: a value falls
    back when its mantissa lies within 0.01 of a rounding half, 2% of
    evenly spread mantissas (2.05% of these W values, measured)."""
    _, grid = _ballistic()
    formatted, by_python = [], []

    def sci_cells(x):
        formatted.append(np.size(x))
        return sci(x)

    def python_cells(values):
        by_python.append(values.size)
        return python(values)

    sci, python = cli._sci_cells, cli._python_cells
    monkeypatch.setattr(cli, "_sci_cells", sci_cells)
    monkeypatch.setattr(cli, "_python_cells", python_cells)
    write_wigner_csv(grid, tmp_path / "w.csv")
    n_theta, n_phi = grid.values.shape
    assert sum(formatted) == grid.values.size + 2 * n_theta + n_phi
    assert sum(by_python) <= 0.05 * grid.values.size


def test_colour_edges_hit_half_steps():
    """The constructed grid does exercise round-half-to-even."""
    _, grid = _colour_edges()
    t = np.abs(grid.values).ravel()
    halves = [np.abs(t * s - np.round(t * s)) == 0.5 for s in _STEPS]
    assert np.any(halves)
    assert {1.0, -1.0} <= set(grid.values.ravel().tolist())
    assert np.any(np.signbit(grid.values) & (grid.values == 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_svg_rejects_non_finite_values(bad, tmp_path):
    _, grid = _small_grid()
    values = grid.values.copy()
    values[3, 7] = bad
    path = tmp_path / "bad.svg"
    with pytest.raises(ValueError, match="non-finite"):
        render_heatmap_svg(dataclasses.replace(grid, values=values), path)
    assert not path.exists()
