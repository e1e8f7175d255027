"""The Wigner CSV and SVG emitters write the same bytes as their per-cell
references in `oracles`, on real and constructed grids."""

import dataclasses
import math

import numpy as np
import pytest

from blochwalk import (CoinPulse, SiteIndexing, SpinQuantum, WalkSchedule,
                       evolve, initial_state, wigner_grid)
from blochwalk.cli import write_wigner_csv
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


GRIDS = {"ballistic_N200": _ballistic, "all_zero": _all_zero,
         "colour_edges": _colour_edges,
         "n_phi_50_L6": _phi_not_multiple_of_sites}


@pytest.fixture(scope="module", params=sorted(GRIDS))
def case(request):
    return GRIDS[request.param]()


@pytest.mark.parametrize("with_ticks", [True, False])
def test_svg_matches_per_cell_reference(case, with_ticks, tmp_path):
    idx, grid = case
    ticks = idx if with_ticks else None
    render_heatmap_svg(grid, tmp_path / "new.svg", ticks)
    render_heatmap_svg_per_cell(grid, tmp_path / "ref.svg", ticks)
    assert ((tmp_path / "new.svg").read_bytes()
            == (tmp_path / "ref.svg").read_bytes())


def test_wigner_csv_matches_per_field_reference(case, tmp_path):
    _, grid = case
    write_wigner_csv(grid, tmp_path / "new.csv")
    write_wigner_csv_per_field(grid, tmp_path / "ref.csv")
    assert ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


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
