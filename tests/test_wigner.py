"""Phase-space kernel weights, the theta kernel, Wigner grids, the exact
marginal, its site bins and its spread."""

import dataclasses
import math
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest

from blochwalk import (CoinPulse, CoinWalkerState, DensityMatrix,
                       NumericalInvariantError, PhiDistribution, SiteIndexing,
                       SpinQuantum, WalkSchedule, cg_l0_family, evolve,
                       ideal_sigma, initial_state, kernel_weights,
                       marginal_phi, reduce_walker, sigma_from_marginal,
                       small_d_matrix, wigner_grid)
from blochwalk.su2 import _jy_eigensystem
from blochwalk.wigner import (_gauss_legendre, _grid_harmonics,
                              _harmonic_laps, _phi_node_sum, _rho_entries,
                              _theta_frame_stack, _theta_kernel,
                              _wrapped_index)

from oracles import (DECIMAL_PI, gauss_legendre_node_by_decimal,
                     grid_harmonics_unfolded, grid_harmonics_whole_stack,
                     grid_marginal, grid_sigma, phi_node_sum_by_gather,
                     site_bins_by_gather, theta_kernel_gl, tv_distance,
                     upper_diagonals, wigner_at, wigner_grid_by_vectors)


def _evolved(sites, two_j, steps):
    idx = SiteIndexing(sites)
    spin = SpinQuantum(two_j)
    sched = WalkSchedule.site_aligned(idx, steps)
    return idx, spin, evolve(initial_state(idx, spin), CoinPulse.hadamard(),
                             sched)


# ---------------------------------------------------------------------------
# kernel weights
# ---------------------------------------------------------------------------

def test_kernel_weights_spin_half_closed_form():
    w = kernel_weights(SpinQuantum(1))
    assert w[0] == pytest.approx((1.0 + math.sqrt(3.0)) / 2.0, abs=1e-12)
    assert w[1] == pytest.approx((1.0 - math.sqrt(3.0)) / 2.0, abs=1e-12)


@pytest.mark.parametrize("two_j", [1, 2, 3, 8, 41, 100, 200, 800, 1100, 1600])
def test_kernel_weights_sum_to_one(two_j):
    w = kernel_weights(SpinQuantum(two_j))
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("two_j,two_m", [(1, 1), (4, 2), (9, 5), (20, 14)])
def test_projection_flip_alternates_coupling_signs(two_j, two_m):
    # c_l(j, -m) = (-1)^l c_l(j, m); the kernel weights are therefore NOT
    # symmetric under m -> -m (only the even-l couplings survive unchanged)
    table = cg_l0_family(two_j)
    plus = table[(two_j - two_m) // 2]
    minus = table[(two_j + two_m) // 2]
    signs = np.where(np.arange(two_j + 1) % 2 == 0, 1.0, -1.0)
    assert np.abs(minus - signs * plus).max() < 1e-11


# ---------------------------------------------------------------------------
# theta kernel K (closed form) against Gauss-Legendre in theta
# ---------------------------------------------------------------------------

def _theta_kernel_in_full(spin):
    """K with the arithmetic `_theta_kernel` gathers its wrapped diagonals
    from, the reference for that layout bit for bit."""
    lam, r, signs = _jy_eigensystem(spin.two_j)
    n = lam[:, None] - lam[None, :]
    g = np.zeros(n.shape)
    even = n % 2 == 0
    g[even] = 2.0 / (1.0 - n[even] ** 2)
    odd_one = np.abs(n) == 1
    g[odd_one] = 0.5 * math.pi * n[odd_one]
    m = (r.T * kernel_weights(spin)) @ r
    return signs * ((r @ (m * g)) @ r.T)


def test_theta_kernel_first_build_peaks_under_28_n_squared_bytes(
        cleared_caches):
    # the Clebsch-Gordan table is its recursion's own array, the kernel
    # weights form no product of it, and K's last product writes into M's
    # buffer, so a first build holds R, M and one product, about 24 n^2
    # bytes, where the sign table and those copies took it to 32 n^2
    spin = SpinQuantum(1000)
    tracemalloc.start()
    try:
        _theta_kernel(spin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28 * spin.dim ** 2


@pytest.mark.parametrize("two_j", [1, 2, 7, 30, 31, 80, 200, 201])
def test_theta_kernel_matches_quadrature(two_j):
    # the cache holds K's wrapped diagonals, kw[p, a] = K[a, (a+p) mod n]
    spin = SpinQuantum(two_j)
    n = spin.dim
    kw = _theta_kernel(spin)
    assert kw.dtype == np.float64 and kw.shape == (n // 2 + 1, n)
    lo, hi = np.divmod(_wrapped_index(n), n)
    assert np.abs(kw - theta_kernel_gl(spin)[lo, hi]).max() < 1e-13
    # heads and tails are, bit for bit, diagonals p and n - p of the
    # closed-form K's diagonal-major table
    kd = upper_diagonals(_theta_kernel_in_full(spin))
    for p in range(n // 2 + 1):
        assert np.array_equal(kw[p, :n - p], kd[p, :n - p])
        assert np.array_equal(kw[p, n - p:], kd[n - p, :p] if p else [])
    # sum_m Delta_m = 1 and d(t) is orthogonal, so K_aa = integral sin t dt
    # / (2J + 1) is 2/(2J + 1) for every a
    assert np.abs(kw[0] * n / 2.0 - 1.0).max() < 1e-12


@pytest.mark.parametrize("two_j", [1, 2, 30, 31])
def test_theta_quadrature_has_converged(two_j):
    # the oracle's default node count agrees with twice as many nodes
    spin = SpinQuantum(two_j)
    n = max(2 * two_j + 4, 64)
    assert np.abs(theta_kernel_gl(spin, n)
                  - theta_kernel_gl(spin, 2 * n)).max() < 1e-13


# ---------------------------------------------------------------------------
# pointwise Wigner values (the `wigner_at` oracle)
# ---------------------------------------------------------------------------

def test_maximally_mixed_state_is_flat():
    spin = SpinQuantum(10)
    rho = DensityMatrix(spin, np.eye(spin.dim, dtype=complex) / spin.dim)
    w = kernel_weights(spin)
    rng = np.random.default_rng(3)
    for _ in range(5):
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(-math.pi, math.pi)
        assert wigner_at(rho, theta, phi, w) \
            == pytest.approx(1.0 / spin.dim, abs=1e-12)


@pytest.mark.parametrize("two_j", [1, 10])
def test_top_dicke_state_peaks_at_north_pole(two_j):
    spin = SpinQuantum(two_j)
    rho = np.zeros((spin.dim, spin.dim), dtype=complex)
    rho[0, 0] = 1.0
    w = kernel_weights(spin)
    # at the north pole the rotated frame is the Dicke basis itself,
    # so W(0, .) is exactly the top kernel weight
    assert wigner_at(DensityMatrix(spin, rho), 0.0, 0.3, w) \
        == pytest.approx(w[0], abs=1e-12)


def test_wigner_at_rejects_mismatched_weights():
    spin = SpinQuantum(4)
    rho = DensityMatrix(spin, np.eye(5, dtype=complex) / 5.0)
    with pytest.raises(ValueError):
        wigner_at(rho, 1.0, 0.0, kernel_weights(SpinQuantum(6)))


def test_wigner_at_flags_non_hermitian_input():
    spin = SpinQuantum(2)
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 0] = 1.0
    bad[0, 2] = 0.5
    with pytest.raises(NumericalInvariantError):
        wigner_at(DensityMatrix(spin, bad), 1.1, 0.4,
                  kernel_weights(spin))


def test_wigner_at_flags_nan_input():
    spin = SpinQuantum(2)
    bad = np.full((3, 3), math.nan, dtype=complex)
    with pytest.raises(NumericalInvariantError, match="nan"):
        wigner_at(DensityMatrix(spin, bad), 1.1, 0.4, kernel_weights(spin))


# ---------------------------------------------------------------------------
# Wigner grids
# ---------------------------------------------------------------------------

def test_grid_normalization_along_the_walk():
    _, spin, states = _evolved(6, 50, 2)
    for state in states:
        grid = wigner_grid(state, (52, 48))
        assert grid.normalization() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("sites,two_j,theta0,h", [
    (6, 30, math.pi / 2.0, None),
    (6, 31, math.pi / 2.0, None),
    (2, 20, math.pi / 2.0, None),
    (3, 21, math.pi / 2.0, None),
    (6, 30, 0.05, None),
    (5, 24, 1.1,
     tuple(np.random.default_rng(2022).uniform(-math.pi, math.pi, 3))),
    (2, 1, math.pi / 2.0, None),
], ids=["equator", "half-integer-j", "two-sites", "three-sites", "near-pole",
        "random-pulse", "spin-half"])
def test_pure_state_path_matches_density_path(sites, two_j, theta0, h):
    """The amplitudes give rho's wrapped diagonals, and J rho^T J's, with
    the bits of the density matrix's, so the two paths give the same
    grid, and the same marginal to rounding."""
    idx = SiteIndexing(sites, theta0)
    spin = SpinQuantum(two_j)
    pulse = CoinPulse.hadamard() if h is None else CoinPulse(h)
    states = evolve(initial_state(idx, spin), pulse,
                    WalkSchedule.site_aligned(idx, 2))
    rho = reduce_walker(states[2])
    lo, hi = np.divmod(_wrapped_index(spin.dim), spin.dim)
    for rows, cols in ((lo, hi), (spin.two_j - hi, spin.two_j - lo)):
        assert np.array_equal(_rho_entries(states[2], rows, cols),
                              _rho_entries(rho, rows, cols))
    res = (two_j + 2, max(8 * sites, sites * (two_j // sites + 1)))
    direct = wigner_grid(states[2], res)
    via_rho = wigner_grid(rho, res)
    assert np.array_equal(direct.values, via_rho.values)
    _assert_matches_vector_reference(direct, states[2])
    dists = [marginal_phi(grid, idx) for grid in (direct, via_rho)]
    for grid, dist in zip((direct, via_rho), dists):
        assert grid.normalization() == pytest.approx(1.0, abs=1e-10)
        assert dist.site_probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    # the amplitudes' diagonal loop and the density matrix's one-node
    # product give the same marginal
    pure, mixed = dists
    assert np.abs(pure.harmonics - mixed.harmonics).max() \
        <= 1e-15 * np.abs(pure.harmonics).max()
    assert np.abs(pure.site_probabilities
                  - mixed.site_probabilities).max() <= 1e-15
    assert abs(sigma_from_marginal(pure)
               - sigma_from_marginal(mixed)) <= 1e-14


def _assert_matches_vector_reference(grid, state):
    ref = wigner_grid_by_vectors(state, grid.values.shape)
    assert np.abs(grid.values - ref).max() <= 1e-13 * np.abs(ref).max()


def test_full_rank_density_matrix_matches_vector_reference():
    spin = SpinQuantum(25)
    rng = np.random.default_rng(7)
    a = rng.normal(size=(26, 26)) + 1j * rng.normal(size=(26, 26))
    rho = a @ a.conj().T
    state = DensityMatrix(spin, rho / np.trace(rho).real)
    grid = wigner_grid(state, (27, 40))
    assert grid.normalization() == pytest.approx(1.0, abs=1e-12)
    _assert_matches_vector_reference(grid, state)


@pytest.mark.parametrize("n", [2, 3, 11, 12])
def test_stack_holds_the_wrapped_kernel_diagonals(n):
    """kw[p, i, a] = K_i[a, (a+p) mod n] for p = 0 .. n//2, read bit for
    bit from the upper triangle of the d-matrix product: diagonal p in
    the head, diagonal n - p in the tail, and at even n row n/2 holding
    diagonal n/2 twice."""
    spin = SpinQuantum(n - 1)
    n_theta = n + 3
    theta = _gauss_legendre(n_theta)[0]
    kw = _theta_frame_stack(spin.two_j, n_theta)
    assert kw.shape == (n // 2 + 1, (n_theta + 1) // 2, n)
    delta = kernel_weights(spin)
    a = np.arange(n)
    for i in range(kw.shape[1]):
        d = small_d_matrix(spin, float(theta[i]))
        k = (d * delta) @ d.T
        upper = np.triu(k) + np.triu(k, 1).T
        for p in range(n // 2 + 1):
            b = (a + p) % n
            assert np.array_equal(kw[p, i], upper[a, b])
            assert np.abs(kw[p, i] - k[a, b]).max() <= 1e-15
            assert np.array_equal(kw[p, i, :n - p], np.diagonal(k, p))
            assert np.array_equal(kw[p, i, n - p:], np.diagonal(k, n - p))
        if n % 2 == 0:
            assert np.array_equal(kw[n // 2, i, n // 2:],
                                  kw[n // 2, i, :n // 2])


@pytest.mark.parametrize("two_j,n_theta,kind", [
    (1, 3, "walk"), (2, 4, "walk"), (30, 32, "walk"), (31, 33, "walk"),
    (30, 31, "walk"), (200, 202, "walk"), (10, 13, "mixed"),
    (25, 27, "mixed"), (26, 28, "mixed"),
])
def test_grid_harmonics_match_the_unfolded_product(two_j, n_theta, kind):
    """The folded stack gives the unfolded product's harmonics q <= n//2
    bit for bit; the tails, summed at other positions of the same
    product, within 1e-15 of the largest."""
    spin = SpinQuantum(two_j)
    if kind == "walk":
        idx = SiteIndexing(6, 1.1)
        state = evolve(initial_state(idx, spin), CoinPulse.hadamard(),
                       WalkSchedule.site_aligned(idx, 3))[3]
        rho = reduce_walker(state)
    else:
        rng = np.random.default_rng(two_j)
        a = rng.normal(size=(spin.dim,) * 2) \
            + 1j * rng.normal(size=(spin.dim,) * 2)
        rho = a @ a.conj().T
        state = rho = DensityMatrix(spin, rho / np.trace(rho).real)
    g = _grid_harmonics(state, _theta_frame_stack(two_j, n_theta), n_theta,
                        spin.dim)
    ref = grid_harmonics_unfolded(rho, _gauss_legendre(n_theta)[0])
    head = spin.dim // 2 + 1
    assert g.shape == ref.shape == (spin.dim, n_theta)
    assert np.array_equal(g[:head], ref[:head])
    assert np.abs(g - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("two_j,n_theta,n_phi", [
    (200, 202, 320), (200, 201, 37), (31, 33, 7), (30, 31, 12), (1, 2, 1),
    (2, 3, 2), (25, 28, 26), (26, 27, 64),
], ids=lambda v: str(v))
def test_grid_is_the_whole_stack_product_bit_for_bit(two_j, n_theta, n_phi):
    """The block-wise product written into the FFT buffer gives the grid
    that the product of the whole stack, its harmonics array and
    `_phi_node_sum` gave, to the last bit, signed zeros included: odd and
    even 2J + 1 and n_theta, and n_phi <= 2J, whose laps add up in one
    buffer row."""
    spin = SpinQuantum(two_j)
    idx = SiteIndexing(6, 1.1)
    walk = evolve(initial_state(idx, spin), CoinPulse.hadamard(),
                  WalkSchedule.site_aligned(idx, 3))
    rng = np.random.default_rng(two_j)
    a = rng.normal(size=(spin.dim,) * 2) \
        + 1j * rng.normal(size=(spin.dim,) * 2)
    rho = a @ a.conj().T
    mixed = DensityMatrix(spin, rho / np.trace(rho).real)
    kw = _theta_frame_stack(two_j, n_theta)
    for state in (walk[3], reduce_walker(walk[3]), mixed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")      # n_phi <= 2J
            got = wigner_grid(state, (n_theta, n_phi)).values
        h = grid_harmonics_whole_stack(state, kw, n_theta)
        want = _phi_node_sum(_harmonic_laps(h, n_phi), len(h), n_phi).T
        assert got.shape == want.shape == (n_theta, n_phi)
        assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                              np.ascontiguousarray(want).view(np.uint64))


@pytest.mark.parametrize("kind", ["walk", "density_matrix"])
def test_second_ballistic_grid_stays_under_its_charge(kind):
    """With the kernel stack cached, a ballistic-shaped grid (N = 200,
    202 x 320) holds less than the 32 n_theta n_phi bytes that
    `cli._estimated_bytes` charges for one grid's FFT buffer and values
    above what was live before the call: no harmonics array of the whole
    grid and no column table of the whole stack."""
    _, _, walk = _evolved(40, 200, 9)
    state = walk[9] if kind == "walk" else reduce_walker(walk[9])
    wigner_grid(walk[0], (202, 320))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        wigner_grid(state, (202, 320))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 32 * 202 * 320


@pytest.mark.parametrize("n_theta", [2, 3, 202, 2000])
def test_theta_rule_matches_forty_digit_newton(n_theta):
    """Nodes within 5e-16 of 40-digit values and weights within 2e-13
    relative (1e-12 at 2000 nodes), both ends and a sample of interior
    nodes, the middle one at odd n_theta included; the weights sum to 2,
    and the nodes and weights are exactly mirrored about pi/2."""
    theta, w = _gauss_legendre(n_theta)
    half = (n_theta + 1) // 2
    assert np.all(np.diff(theta) > 0)
    assert np.array_equal(theta[::-1][:n_theta // 2],
                          math.pi - theta[:n_theta // 2])
    assert n_theta % 2 == 0 or theta[half - 1] == math.pi / 2
    assert np.array_equal(w[::-1], w)
    assert abs(w.sum() - 2.0) <= 1e-13
    bound = 2e-13 if n_theta <= 202 else 1e-12
    sample = {0, 1, half // 3, half // 2, half - 2, half - 1}
    sample &= set(range(half))
    for i in sorted(sample):
        t, weight = gauss_legendre_node_by_decimal(n_theta, float(theta[i]))
        assert abs(float(Decimal(theta[i]) - t)) <= 5e-16, i
        assert abs(float(Decimal(w[i]) / weight - 1)) <= bound, i
        if i == 0:              # the end node at pi - theta_0
            assert abs(float(Decimal(theta[-1]) - (DECIMAL_PI - t))) \
                <= 5e-16


@pytest.mark.parametrize("call", ["grid", "marginal"])
@pytest.mark.parametrize("n_phi", [0, -3])
def test_phi_node_count_must_be_positive(call, n_phi):
    idx, _, states = _evolved(6, 10, 1)
    with pytest.raises(ValueError, match="n_phi"):
        if call == "grid":
            wigner_grid(states[1], (12, n_phi))
        else:
            marginal_phi(states, idx, n_phi)


@pytest.mark.parametrize("two_j", [1, 2, 30, 61])
def test_node_kernel_mirrors_about_the_equator(two_j):
    # K(pi - theta) = J K(theta) J with J the index reversal, which lets the
    # grid keep only the kernels of the nodes with theta <= pi/2
    spin = SpinQuantum(two_j)
    delta = kernel_weights(spin)

    def node_kernel(t):
        d = small_d_matrix(spin, t)
        return (d * delta) @ d.T

    for t in (1e-3, 0.4, 1.3, math.pi / 2.0):
        assert np.abs(node_kernel(math.pi - t)
                      - node_kernel(t)[::-1, ::-1]).max() < 1e-13


@pytest.mark.parametrize("n_theta", [2, 3, 12, 13])
def test_mirrored_rows_match_vector_reference(n_theta):
    # odd n_theta puts a node on the equator, which the half stack holds
    # once; a pure composite state (even 2J), a full-rank density matrix
    # (odd 2J) and its real part, a density matrix with real entries
    _, _, states = _evolved(6, 10, 2)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
    spin = SpinQuantum(9)
    for state in (states[2], DensityMatrix(spin, rho),
                  DensityMatrix(spin, rho.real)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")      # n_theta < 2J + 2
            grid = wigner_grid(state, (n_theta, 24))
        assert grid.values.shape == (n_theta, 24)
        _assert_matches_vector_reference(grid, state)


def test_grid_refuses_a_stacked_walk():
    _, _, states = _evolved(6, 10, 2)
    with pytest.raises(ValueError, match=r"states\[k\]"):
        wigner_grid(states, (12, 24))


def test_grid_matches_pointwise_oracle():
    idx, spin, states = _evolved(6, 20, 2)
    rho = reduce_walker(states[2])
    grid = wigner_grid(states[2], (22, 30))
    w = kernel_weights(spin)
    for i, k in [(0, 0), (5, 7), (11, 15), (21, 29)]:
        point = wigner_at(rho, grid.theta_nodes[i], grid.phi_nodes[k], w)
        assert grid.values[i, k] == pytest.approx(point, abs=1e-12)


def test_cached_arrays_are_read_only():
    spin = SpinQuantum(10)
    rho = DensityMatrix(spin, np.eye(spin.dim, dtype=complex) / spin.dim)
    grid = wigner_grid(rho, (12, 24))
    # the stack keeps ceil(n_theta/2) kernels as n//2 + 1 wrapped diagonals
    assert _theta_frame_stack(10, 13).shape == (6, 7, 11)
    assert _theta_kernel(spin).shape == (6, 11)     # one kernel, same layout
    cached = (grid.theta_nodes, grid.theta_weights, kernel_weights(spin),
              _theta_kernel(spin), _theta_frame_stack(10, 12),
              _theta_frame_stack(10, 13), *_jy_eigensystem(10),
              *_jy_eigensystem(9), *_gauss_legendre(12),
              *_gauss_legendre(13))
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    assert wigner_grid(rho, (12, 24)).normalization() \
        == pytest.approx(1.0, abs=1e-12)
    assert marginal_phi(rho, SiteIndexing(6), 24).total \
        == pytest.approx(1.0, abs=1e-12)


def test_per_spin_caches_are_bounded_and_hit_in_a_cycling_scan():
    def flat(two_j):
        return DensityMatrix(SpinQuantum(two_j),
                             np.eye(two_j + 1, dtype=complex) / (two_j + 1))

    # the Gauss-Legendre rule is cached per resolution n_theta = 2J + 2
    caches = (_theta_kernel, _jy_eigensystem, _gauss_legendre, kernel_weights)
    for cache in caches:
        cache.cache_clear()
    bound = max(cache.cache_info().maxsize for cache in caches)
    idx = SiteIndexing(6)
    for two_j in range(1, bound + 4):
        wigner_grid(flat(two_j), (two_j + 2, 16))
        marginal_phi(flat(two_j), idx, 12)
    assert [c.cache_info().currsize for c in caches] \
        == [c.cache_info().maxsize for c in caches]

    # three spin counts, cycled as a parameter scan does, miss only on
    # their first pass, although every grid rebuilds its kernel stack
    cycle = [flat(two_j) for two_j in (20, 21, 22)]
    for state in cycle:
        wigner_grid(state, (state.spin.two_j + 2, 24))
        marginal_phi(state, idx, 24)
    misses = [c.cache_info().misses for c in caches]
    stacks_built = _theta_frame_stack.cache_info().misses
    for state in cycle * 2:
        wigner_grid(state, (state.spin.two_j + 2, 24))
        marginal_phi(state, idx, 24)
    assert [c.cache_info().misses for c in caches] == misses
    assert _theta_frame_stack.cache_info().misses == stacks_built + 6


def test_grid_of_maximally_mixed_state_is_constant():
    spin = SpinQuantum(10)
    rho = DensityMatrix(spin, np.eye(spin.dim, dtype=complex) / spin.dim)
    grid = wigner_grid(rho, (12, 24))
    assert np.abs(grid.values - 1.0 / spin.dim).max() < 1e-12


def test_rotational_covariance_shifts_phi_columns():
    # rotating the state by one site spacing cycles the phi columns
    idx, spin, states = _evolved(6, 30, 2)
    n_phi = 48                       # multiple of 6 sites
    from blochwalk import rz_phases, CoinWalkerState
    fwd = rz_phases(spin, idx.delta_phi)
    rotated = CoinWalkerState(spin, fwd * states[2].up, fwd * states[2].down)
    base = wigner_grid(states[2], (32, n_phi))
    moved = wigner_grid(rotated, (32, n_phi))
    shift = n_phi // 6
    assert np.abs(moved.values - np.roll(base.values, shift, axis=1)).max() \
        < 1e-8


def test_interference_fringes_are_negative():
    _, spin, states = _evolved(6, 50, 2)
    grid = wigner_grid(states[2], (52, 48))
    assert grid.values.min() < -0.01


def test_mixing_lowers_the_peak():
    _, spin, states = _evolved(6, 50, 1)
    pure = wigner_grid(states[0], (52, 48)).values.max()
    mixed = wigner_grid(states[1], (52, 48)).values.max()
    assert pure > mixed


def test_grid_warns_when_resolution_too_low():
    # n_phi = 6 <= 2J: the harmonics alias onto the few phi nodes, and the
    # values still match the per-node evaluation
    _, spin, states = _evolved(6, 100, 0)
    with pytest.warns(UserWarning, match="normalization"):
        grid = wigner_grid(states[0], (102, 6))
    _assert_matches_vector_reference(grid, states[0])


def test_grid_input_validation():
    _, spin, states = _evolved(6, 10, 0)
    with pytest.raises(ValueError):
        wigner_grid(states[0], (1, 8))
    with pytest.raises(TypeError):
        wigner_grid(np.eye(11), (12, 24))


@pytest.mark.parametrize("branches,message", [
    ((np.eye(6) / 6,), r"density matrix entries have shape \(6, 6\), "
                       r"not \(5, 5\)"),
    ((np.eye(4) / 4,), r"shape \(4, 4\), not \(5, 5\)"),
    ((np.ones(5), np.ones(4)), r"walker branches have shapes \(5,\) and "
                               r"\(4,\)"),
    ((np.ones(6), np.ones(6)), r"shapes \(6,\) and \(6,\); both need 5"),
], ids=["rho_6x6", "rho_4x4", "branches_differ", "branches_6"])
def test_mis_shaped_states_are_refused(branches, message):
    # a state's arrays must match its spin, 2J + 1 = 5 here: a 6 x 6
    # density matrix would give a grid of its top-left 5 x 5 block
    spin = SpinQuantum(4)
    if len(branches) == 1:
        state = DensityMatrix(spin, branches[0].astype(complex))
    else:
        state = CoinWalkerState(spin, *(b / 3.0 + 0j for b in branches))
    with pytest.raises(ValueError, match=message):
        wigner_grid(state, (6, 10))
    with pytest.raises(ValueError, match=message):
        marginal_phi(state, SiteIndexing(2), 10)


@pytest.mark.parametrize("n_theta", [11, 12])
def test_grid_builds_one_d_matrix_per_kept_node(n_theta, monkeypatch):
    # the benchmark's traced `su2.small_d_matrix.calls` and `wigner.dstack.*`
    # count the calls through this binding: a stack build makes one
    # d-matrix per node with theta <= pi/2, a cached stack none
    calls = []

    def counted(spin, beta):
        calls.append(beta)
        return small_d_matrix(spin, beta)

    monkeypatch.setattr("blochwalk.wigner.small_d_matrix", counted)
    _theta_frame_stack.cache_clear()
    _, _, states = _evolved(6, 8, 1)
    wigner_grid(states[1], (n_theta, 24))
    assert len(calls) == (n_theta + 1) // 2
    wigner_grid(states[0], (n_theta, 24))
    assert len(calls) == (n_theta + 1) // 2


# ---------------------------------------------------------------------------
# azimuthal marginal, site bins, spread
# ---------------------------------------------------------------------------

def test_initial_state_mass_sits_in_home_bin():
    idx, spin, states = _evolved(6, 50, 0)
    dist = marginal_phi(wigner_grid(states[0], (52, 48)), idx)
    total = dist.density.sum() * (2.0 * math.pi / len(dist.phi_nodes))
    assert total == pytest.approx(1.0, abs=1e-8)
    assert dist.total == pytest.approx(1.0, abs=1e-12)
    assert dist.site_probabilities[idx.site_numbers == 0][0] > 0.99


def test_uniform_state_gives_flat_marginal():
    spin = SpinQuantum(10)
    idx = SiteIndexing(6)
    rho = DensityMatrix(spin, np.eye(spin.dim, dtype=complex) / spin.dim)
    dist = marginal_phi(wigner_grid(rho, (12, 24)), idx)
    assert np.abs(dist.density - 1.0 / (2.0 * math.pi)).max() < 1e-12
    assert np.abs(dist.site_probabilities - 1.0 / 6.0).max() < 1e-12


def test_one_step_splits_half_half():
    idx, spin, states = _evolved(6, 50, 1)
    dist = marginal_phi(wigner_grid(states[1], (52, 48)), idx)
    p = {int(n): pr for n, pr in zip(dist.site_numbers,
                                     dist.site_probabilities)}
    assert p[1] == pytest.approx(0.5, abs=0.01)
    assert p[-1] == pytest.approx(0.5, abs=0.01)
    rest = sum(pr for n, pr in p.items() if n not in (1, -1))
    assert rest < 1e-3


def test_initial_packet_width_scales_as_inverse_sqrt_spins():
    for two_j in (50, 200):
        idx, spin, states = _evolved(6, two_j, 0)
        grid = wigner_grid(states[0], (two_j + 2, 240))
        sigma = sigma_from_marginal(marginal_phi(grid, idx))
        assert sigma == pytest.approx(1.0 / math.sqrt(two_j), rel=0.03)


def test_symmetric_distribution_has_zero_mean():
    idx, spin, states = _evolved(6, 50, 1)
    dist = marginal_phi(wigner_grid(states[1], (52, 48)), idx)
    density_mean = (float(dist.density @ dist.phi_nodes)
                    * 2.0 * math.pi / len(dist.phi_nodes))
    site_mean = dist.site_probabilities @ (dist.site_numbers * idx.delta_phi)
    assert density_mean == pytest.approx(0.0, abs=1e-8)
    assert site_mean == pytest.approx(0.0, abs=1e-8)


def test_site_binned_sigma_agrees_with_density_sigma():
    idx, spin, states = _evolved(6, 200, 1)
    dist = marginal_phi(wigner_grid(states[1], (202, 240)), idx)
    dense = sigma_from_marginal(dist)
    binned = ideal_sigma(dist.site_probabilities, idx)
    assert binned == pytest.approx(idx.delta_phi, abs=1e-3)
    assert abs(dense - binned) < 0.05 * dense


def _flat_distribution(p0):
    """A PhiDistribution with P = p0 everywhere (harmonics p_0 only)."""
    nodes = -math.pi + 2.0 * math.pi * np.arange(24) / 24.0
    harmonics = np.zeros(11, dtype=complex)
    harmonics[0] = p0
    return PhiDistribution(nodes, np.arange(-2, 4), harmonics)


def test_flat_distribution_spread():
    # the uniform density on [-pi, pi) has sigma = pi / sqrt 3
    dist = _flat_distribution(1.0 / (2.0 * math.pi))
    assert sigma_from_marginal(dist) == pytest.approx(math.pi / math.sqrt(3.0),
                                                      abs=1e-14)


def test_sigma_rejects_unnormalized_marginal():
    with pytest.raises(ValueError, match="^step 0: marginal integrates to "):
        sigma_from_marginal(_flat_distribution(0.01))
    # one bad step among good ones: steps 0 .. 2 stacked, step 1 leaks
    good = _flat_distribution(1.0 / (2.0 * math.pi))
    stacked = dataclasses.replace(
        good, harmonics=np.stack([good.harmonics, 0.99 * good.harmonics,
                                  good.harmonics]))
    with pytest.raises(ValueError, match="^step 1: marginal integrates to "
                                         "0.99"):
        sigma_from_marginal(stacked)


def test_sigma_rejects_nan_marginal():
    with pytest.raises(ValueError, match="nan"):
        sigma_from_marginal(_flat_distribution(math.nan))


# ---------------------------------------------------------------------------
# the exact marginal against quadrature
# ---------------------------------------------------------------------------

def _final_state(sites, two_j, steps, theta0=math.pi / 2.0):
    idx = SiteIndexing(sites, theta0)
    sched = WalkSchedule.site_aligned(idx, steps)
    states = evolve(initial_state(idx, SpinQuantum(two_j)),
                    CoinPulse.hadamard(), sched)
    return idx, states[-1]


def test_marginal_of_state_equals_marginal_of_its_grid():
    idx, state = _final_state(7, 31, 3, 1.1)
    grid = wigner_grid(state, (33, 56))
    via_grid = marginal_phi(grid, idx)
    direct = marginal_phi(state, idx, 56)
    for name in ("phi_nodes", "density", "site_numbers",
                 "site_probabilities", "harmonics"):
        assert np.array_equal(getattr(via_grid, name), getattr(direct, name))
    assert np.array_equal(direct.phi_nodes, grid.phi_nodes)


@pytest.mark.parametrize("sites,two_j,steps,theta0", [
    (6, 50, 2, math.pi / 2.0), (7, 31, 3, 1.1), (40, 200, 9, math.pi / 2.0),
    # 3000 sites: the site bins of 31 steps take two FFT buffers
    (2, 4, 30, 0.4), (3000, 1, 30, math.pi / 2.0),
])
def test_stacked_marginal_matches_each_step(sites, two_j, steps, theta0):
    """Row k of one all-steps call is the one-step call on step k, and
    matches the density-matrix path of the same state, harmonics, site bins
    and P(phi) alike; the spread, taken for all steps at once, is each
    step's own."""
    idx = SiteIndexing(sites, theta0)
    spin = SpinQuantum(two_j)
    states = evolve(initial_state(idx, spin), CoinPulse.hadamard(),
                    WalkSchedule.site_aligned(idx, steps))
    stacked = marginal_phi(states, idx, 2 * sites)
    assert stacked.harmonics.shape == (steps + 1, spin.dim)
    assert stacked.site_probabilities.shape == (steps + 1, sites)
    sigmas = sigma_from_marginal(stacked)
    for k, state in enumerate(states):
        one = marginal_phi(state, idx, 2 * sites)
        assert np.array_equal(stacked.harmonics[k], one.harmonics)
        assert sigma_from_marginal(one) == sigmas[k]
        for ref in (one, marginal_phi(reduce_walker(state), idx, 2 * sites)):
            scale = np.abs(ref.harmonics).max()
            assert np.abs(stacked.harmonics[k] - ref.harmonics).max() \
                <= 1e-14 * scale
            assert np.abs(stacked.site_probabilities[k]
                          - ref.site_probabilities).max() <= 1e-14 * scale
            assert np.abs(stacked.density[k] - ref.density).max() \
                <= 1e-14 * scale


@pytest.mark.parametrize("two_j", [1, 2, 25, 26])
def test_density_matrix_marginal_at_every_harmonic(two_j):
    """A full-rank density matrix's harmonic p_q is its diagonal sum
    (2J+1)/(4 pi) sum_a K[a, a+q] rho[a, a+q] at every q, with K by
    quadrature in theta."""
    spin = SpinQuantum(two_j)
    rng = np.random.default_rng(two_j)
    a = rng.normal(size=(spin.dim,) * 2) \
        + 1j * rng.normal(size=(spin.dim,) * 2)
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    got = marginal_phi(DensityMatrix(spin, rho), SiteIndexing(6), 24)
    k = theta_kernel_gl(spin)
    want = spin.dim / (4.0 * math.pi) * np.array(
        [np.sum(np.diagonal(k, q) * np.diagonal(rho, q))
         for q in range(spin.dim)])
    assert got.harmonics.shape == want.shape
    assert np.abs(got.harmonics - want).max() <= 1e-13 * np.abs(want).max()


def test_marginal_input_validation():
    idx, state = _final_state(6, 10, 1)
    with pytest.raises(ValueError, match="n_phi"):
        marginal_phi(state, idx)
    with pytest.raises(ValueError, match="n_phi"):
        marginal_phi(wigner_grid(state, (12, 24)), idx, 24)
    with pytest.raises(TypeError):
        marginal_phi(np.eye(11), idx, 24)


@pytest.mark.parametrize("sites,two_j,steps,theta0", [
    (12, 30, 5, 0.3),
    (7, 31, 3, 1.1),
], ids=["theta0=0.3", "half-integer-j"])
def test_grid_marginal_converges_to_exact(sites, two_j, steps, theta0):
    # the grid's cos-theta rule misses the odd-q harmonics and its phi
    # rectangle rule is first order for the bins and the spread, so both
    # errors fall as n_theta and n_phi grow, towards the exact marginal
    idx, state = _final_state(sites, two_j, steps, theta0)
    n_phi = max(8 * sites, sites * (two_j // sites + 1))
    exact = marginal_phi(state, idx, n_phi)
    sigma = sigma_from_marginal(exact)
    tvs, gaps = [], []
    for scale in (1, 4, 16):
        grid = wigner_grid(state, ((two_j + 2) * scale, n_phi * scale))
        approx = grid_marginal(grid, idx)
        tvs.append(tv_distance(approx.site_probabilities,
                               exact.site_probabilities))
        gaps.append(abs(grid_sigma(approx) - sigma))
    assert tvs[0] > 5.0 * tvs[1] > 25.0 * tvs[2]
    assert gaps[0] > 3.0 * gaps[1] > 9.0 * gaps[2]
    assert tvs[2] < 2e-5 and gaps[2] < 5e-4


@pytest.mark.parametrize("sites,two_j,steps,theta0", [
    (12, 30, 5, 0.3),
    (7, 31, 3, 1.1),
    (2, 20, 1, math.pi / 2.0),
], ids=["theta0=0.3", "half-integer-j", "two-sites"])
def test_bins_and_spread_match_quadrature_of_the_harmonics(sites, two_j,
                                                           steps, theta0):
    # integrate P = sum_q p_q e^{iq phi} numerically over each bin and
    # against phi, phi^2 on [-pi, pi): Gauss-Legendre is exact to rounding
    # for these entire integrands at this node count
    idx, state = _final_state(sites, two_j, steps, theta0)
    dist = marginal_phi(state, idx, 64)
    p = dist.harmonics
    q = np.arange(1, len(p))

    def density(phi):
        return p[0].real + 2.0 * (np.exp(1j * np.outer(phi, q)) @ p[1:]).real

    x, w = np.polynomial.legendre.leggauss(200)
    phi = math.pi * x
    dens, w = density(phi), math.pi * w
    mean = float(w @ (phi * dens))
    second = float(w @ (phi * phi * dens))
    assert float(w @ dens) == pytest.approx(dist.total, abs=1e-13)
    assert sigma_from_marginal(dist) \
        == pytest.approx(math.sqrt(second - mean * mean), abs=1e-12)
    half = math.pi / sites
    for n, prob in zip(idx.site_numbers, dist.site_probabilities):
        nodes = n * idx.delta_phi + half * x
        integral = half * float(w @ density(nodes)) / math.pi
        assert prob == pytest.approx(integral, abs=1e-13)
    assert np.abs(dist.density - density(dist.phi_nodes)).max() < 1e-13


# ---------------------------------------------------------------------------
# the FFT periodic sums against the gathered roots of unity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("columns", [(), (7,)], ids=["1d", "2d"])
@pytest.mark.parametrize("two_j,n_phi", [
    (1, 2), (1, 5), (8, 3), (40, 8), (40, 40), (40, 41), (31, 50),
    (200, 37), (200, 320),
])
def test_phi_node_sum_matches_gathered_roots(columns, two_j, n_phi):
    # n_phi <= 2J folds several harmonics onto one residue (aliasing);
    # a complex h_0 checks that only its real part counts
    rng = np.random.default_rng(1000 * two_j + n_phi)
    h = rng.normal(size=(two_j + 1, *columns)) \
        + 1j * rng.normal(size=(two_j + 1, *columns))
    ref = phi_node_sum_by_gather(h, n_phi)
    got = _phi_node_sum(_harmonic_laps(h, n_phi), len(h), n_phi)
    assert got.shape == ref.shape == (n_phi, *columns)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("sites,two_j,steps", [
    (2, 1, 1), (2, 2, 1), (2, 31, 3), (3, 1, 1), (3, 20, 2), (6, 50, 2),
    (7, 31, 3), (12, 101, 5), (40, 200, 9),
])
def test_site_bins_match_gathered_roots(sites, two_j, steps):
    # odd and even L, half-integer and integer J; 2J < L and 2J >= L
    idx, state = _final_state(sites, two_j, steps)
    dist = marginal_phi(state, idx, 2 * sites)
    ref = site_bins_by_gather(dist.harmonics, idx)
    assert np.abs(dist.site_probabilities - ref).max() \
        <= 1e-13 * np.abs(ref).max()
    ref = phi_node_sum_by_gather(dist.harmonics, 2 * sites)
    assert np.abs(dist.density - ref).max() <= 1e-13 * np.abs(ref).max()


def test_tv_distance_basics():
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert tv_distance([0.7, 0.3], [0.4, 0.6]) == pytest.approx(0.3)
