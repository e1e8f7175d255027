"""Site binning: the vectorized grid marginal in `oracles` gives the same
bits as its node-by-node reference, and `write_marginal_csv` the same bytes
as its per-row reference, for both the exact and the grid marginal."""

import dataclasses
import math

import numpy as np
import pytest

from blochwalk import (CoinPulse, SiteIndexing, SpinQuantum, WalkSchedule,
                       evolve, initial_state, marginal_phi, wigner_grid)
from blochwalk.cli import write_marginal_csv
from oracles import (grid_marginal, marginal_phi_per_node,
                     write_marginal_csv_per_row)


def _grid(sites, two_j, steps, n_phi):
    idx = SiteIndexing(sites)
    states = evolve(initial_state(idx, SpinQuantum(two_j)),
                    CoinPulse.hadamard(), WalkSchedule.site_aligned(idx, steps))
    return idx, wigner_grid(states[-1], (two_j + 2, n_phi))


def _half_integer_nodes():
    """L = 40, n_phi = 320: every eighth node sits on a bin edge."""
    return _grid(40, 200, 9, 320)


def _odd_sites():
    """L = 7, n_phi = 50: the node at -pi is the edge between sites 3, -3."""
    return _grid(7, 31, 3, 50)


def _default_run():
    return _grid(6, 50, 2, 54)


def _zero_columns():
    """L = 7, n_phi = 50 with every third phi column of W set to 0.0, the
    -pi edge node among them, so those nodes carry exactly zero mass."""
    idx, grid = _odd_sites()
    values = grid.values.copy()
    values[:, ::3] = 0.0
    return idx, dataclasses.replace(grid, values=values)


CASES = {"L40_nphi320_N200": _half_integer_nodes, "L7_nphi50": _odd_sites,
         "L6_nphi54_default": _default_run, "zero_columns": _zero_columns}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return CASES[request.param]()


def test_site_probabilities_match_per_node_reference(case):
    idx, grid = case
    new = grid_marginal(grid, idx).site_probabilities
    ref = marginal_phi_per_node(grid, idx).site_probabilities
    assert np.array_equal(new, ref)
    assert new.tobytes() == ref.tobytes()


def test_marginal_csv_matches_per_row_reference(case, tmp_path):
    idx, grid = case
    for dist in (marginal_phi(grid, idx), grid_marginal(grid, idx)):
        write_marginal_csv(dist, idx, tmp_path / "new.csv")
        write_marginal_csv_per_row(dist, idx, tmp_path / "ref.csv")
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())


def test_marginal_csv_keeps_signed_zeros(tmp_path):
    # the density of a grid comes from a matmul, which never yields -0.0, so
    # half of the zero entries are flipped to -0.0 by hand
    idx, grid = _zero_columns()
    dist = grid_marginal(grid, idx)
    density = dist.density.copy()
    zeros = np.flatnonzero(density == 0.0)
    assert len(zeros) == 17 and not np.signbit(density[zeros]).any()
    density[zeros[::2]] = -0.0
    dist = dataclasses.replace(dist, density=density)
    write_marginal_csv(dist, idx, tmp_path / "new.csv")
    write_marginal_csv_per_row(dist, idx, tmp_path / "ref.csv")
    text = (tmp_path / "new.csv").read_text()
    assert "-0.000000000000e+00" in text
    assert text == (tmp_path / "ref.csv").read_text()


def test_cases_put_nodes_on_bin_edges():
    idx, grid = _half_integer_nodes()
    _, frac = idx.nearest_site(grid.phi_nodes)
    assert (np.abs(np.abs(frac) - 0.5) < 1e-9).sum() == 40
    idx, grid = _odd_sites()
    nearest, frac = idx.nearest_site(grid.phi_nodes)
    assert grid.phi_nodes[0] == -math.pi
    assert abs(frac[0]) == pytest.approx(0.5, abs=1e-12)
    assert {int(idx.wrap(nearest[0])), int(idx.wrap(nearest[0] + 1))} \
        == {3, -3}
    assert (np.abs(np.abs(frac) - 0.5) < 1e-9).sum() == 1
