"""Coin flip, conditional shift, evolution and the ideal-walk reference."""

import math

import numpy as np
import pytest

from blochwalk import (CoinPulse, CoinWalkerState, SiteIndexing, SpinQuantum,
                       WalkSchedule, coin_unitary, evolve, ideal_sigma,
                       ideal_walk, initial_state, reduce_walker, site_state)

from oracles import (aligned_site_state, evolve_per_step,
                     ideal_ring_amplitudes, step1_reference, step2_reference,
                     validate_density_matrix)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def _frobenius(a, b):
    return float(np.linalg.norm(a - b))


def _norm(state):
    return math.sqrt(float(np.vdot(state.up, state.up).real
                           + np.vdot(state.down, state.down).real))


def _purity(rho):
    return float(np.vdot(rho.entries, rho.entries).real)


# ---------------------------------------------------------------------------
# coin unitary
# ---------------------------------------------------------------------------

def test_zero_pulse_is_identity():
    assert np.array_equal(coin_unitary(CoinPulse((0.0, 0.0, 0.0))), np.eye(2))


def test_hadamard_pulse_realizes_coin_flip():
    u = coin_unitary(CoinPulse.hadamard())
    assert np.abs(u - (-1j) * HADAMARD).max() < 1e-15
    # global phase -i squares to -1
    assert np.abs(u @ u + np.eye(2)).max() < 1e-15


def test_z_pulse_is_diagonal_phase():
    u = coin_unitary(CoinPulse((0.0, 0.0, math.pi)))
    assert np.abs(u - np.diag([-1j, 1j])).max() < 1e-15


def test_coin_unitary_is_unitary():
    u = coin_unitary(CoinPulse((0.3, -1.2, 0.8)))
    assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-14


# ---------------------------------------------------------------------------
# conditional shift, single steps and the stacked walk
# ---------------------------------------------------------------------------

def test_conditional_shift_moves_branches_oppositely():
    # with no coin flip a period is the conditional shift alone
    idx = SiteIndexing(6)
    spin = SpinQuantum(30)
    sched = WalkSchedule.site_aligned(idx, 1)
    w0 = site_state(idx, spin, 0)
    shifted = evolve(CoinWalkerState(spin, w0 / math.sqrt(2.0),
                                     w0 / math.sqrt(2.0)),
                     CoinPulse((0.0, 0.0, 0.0)), sched)[1]
    up_target = site_state(idx, spin, 1)
    down_target = site_state(idx, spin, -1)
    assert abs(np.vdot(up_target, shifted.up)) * math.sqrt(2.0) \
        == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(down_target, shifted.down)) * math.sqrt(2.0) \
        == pytest.approx(1.0, abs=1e-12)


def test_step_without_coin_flip_is_pure_shift():
    idx = SiteIndexing(6)
    spin = SpinQuantum(30)
    sched = WalkSchedule.site_aligned(idx, 1)
    state = initial_state(idx, spin)
    moved = evolve(state, CoinPulse((0.0, 0.0, 0.0)), sched)[1]
    target = site_state(idx, spin, 1)
    assert abs(np.vdot(target, moved.up)) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(moved.down).max() == 0.0


@pytest.mark.parametrize("pulse,coin,steps", [
    (CoinPulse.hadamard(), (1.0, 0.0), 7),
    (CoinPulse((0.3, -0.7, 1.1)), (1.0, 0.0), 7),
    (CoinPulse.hadamard(), (1.0, 1.0j), 7),
    (CoinPulse.hadamard(), (1.0, 0.0), 0),
], ids=["hadamard", "custom", "coin-1-1j", "no-steps"])
def test_evolve_rows_match_per_step_reference(pulse, coin, steps):
    """Row k of the stacked walk is, bit for bit, the state after k
    periods applied one at a time, and walk[k] is that row."""
    idx = SiteIndexing(7, 1.1)
    spin = SpinQuantum(31)
    initial = initial_state(idx, spin, coin)
    sched = WalkSchedule.site_aligned(idx, steps)
    walk = evolve(initial, pulse, sched)
    assert walk.up.shape == walk.down.shape == (steps + 1, spin.dim)
    reference = evolve_per_step(initial, pulse, sched)
    assert len(list(walk)) == len(reference) == steps + 1
    for k, state in enumerate(reference):
        assert walk[k].up.tobytes() == state.up.tobytes()
        assert walk[k].down.tobytes() == state.down.tobytes()
        assert np.shares_memory(walk[k].up, walk.up)


def test_norm_preserved_over_many_steps():
    idx = SiteIndexing(6)
    spin = SpinQuantum(20)
    sched = WalkSchedule.site_aligned(idx, 100)
    state = initial_state(idx, spin, coin=(1.0, 1.0j))
    for s in evolve(state, CoinPulse.hadamard(), sched):
        pass
    assert _norm(s) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta0", [math.pi / 2, 1.0], ids=["equator", "1"])
@pytest.mark.parametrize("pulse", [CoinPulse.hadamard(),
                                   CoinPulse((0.3, -0.7, 1.1))],
                         ids=["hadamard", "custom"])
@pytest.mark.parametrize("two_j", [1, 10, 200, 1000])
def test_dicke_populations_do_not_change_along_the_walk(two_j, pulse,
                                                        theta0):
    """P_k(m) = |u_m|^2 + |d_m|^2 is the same at every step: the coin mixes
    (u_m, d_m) unitarily for each m, and R_z only adds phases."""
    idx = SiteIndexing(7, theta0)
    walk = evolve(initial_state(idx, SpinQuantum(two_j)), pulse,
                  WalkSchedule.site_aligned(idx, 50))
    populations = np.abs(walk.up) ** 2 + np.abs(walk.down) ** 2
    assert np.abs(populations - populations[0]).max() <= 1e-13


def test_schedule_validation():
    idx = SiteIndexing(6)
    with pytest.raises(ValueError):
        WalkSchedule.site_aligned(idx, -1)
    assert WalkSchedule.site_aligned(idx, 3).kappa_T \
        == pytest.approx(idx.delta_phi)


def test_initial_state_normalizes_coin():
    idx = SiteIndexing(6)
    spin = SpinQuantum(10)
    state = initial_state(idx, spin, coin=(3.0, 4.0j))
    assert _norm(state) == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# reduced walker state and the closed-form references
# ---------------------------------------------------------------------------

def test_reduced_product_state_is_pure():
    idx = SiteIndexing(6)
    spin = SpinQuantum(30)
    rho = reduce_walker(initial_state(idx, spin, coin=(1.0, 1.0)))
    validate_density_matrix(rho)
    assert _purity(rho) == pytest.approx(1.0, abs=1e-12)


def test_one_step_density_matrix_matches_closed_form():
    idx = SiteIndexing(6)
    spin = SpinQuantum(50)
    sched = WalkSchedule.site_aligned(idx, 1)
    states = evolve(initial_state(idx, spin), CoinPulse.hadamard(), sched)
    rho = reduce_walker(states[1])
    validate_density_matrix(rho)
    ref = step1_reference(idx, spin)
    assert _frobenius(rho.entries, ref.entries) < 1e-12


def test_one_step_purity_set_by_site_overlap():
    idx = SiteIndexing(6)
    spin = SpinQuantum(50)
    sched = WalkSchedule.site_aligned(idx, 1)
    states = evolve(initial_state(idx, spin), CoinPulse.hadamard(), sched)
    rho = reduce_walker(states[1])
    ov = abs(np.vdot(site_state(idx, spin, 1), site_state(idx, spin, -1)))
    assert _purity(rho) == pytest.approx(0.5 * (1.0 + ov * ov), abs=1e-12)


def test_two_step_density_matrix_matches_closed_form():
    idx = SiteIndexing(6)
    spin = SpinQuantum(50)
    sched = WalkSchedule.site_aligned(idx, 2)
    states = evolve(initial_state(idx, spin), CoinPulse.hadamard(), sched)
    rho = reduce_walker(states[2])
    validate_density_matrix(rho)
    ref = step2_reference(idx, spin)
    assert _frobenius(rho.entries, ref.entries) < 1e-12


def test_density_matrix_validation_rejects_bad_input():
    from blochwalk import DensityMatrix
    spin = SpinQuantum(2)
    with pytest.raises(ValueError):
        validate_density_matrix(
            DensityMatrix(spin, np.diag([0.7, 0.2, 0.2])))         # trace
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = 1.0
    bad[0, 0] = 1.0
    with pytest.raises(ValueError):
        validate_density_matrix(DensityMatrix(spin, bad))         # Hermiticity


def test_density_matrix_validation_rejects_nan():
    from blochwalk import DensityMatrix
    with pytest.raises(ValueError, match="nan"):
        validate_density_matrix(DensityMatrix(
            SpinQuantum(2), np.full((3, 3), math.nan + 0j)))


# ---------------------------------------------------------------------------
# ideal orthogonal-state walk
# ---------------------------------------------------------------------------

def test_ideal_walk_starts_localized():
    probs = ideal_walk(6, 0, HADAMARD)
    assert len(probs) == 1
    idx = SiteIndexing(6)
    expect = (idx.site_numbers == 0).astype(float)
    assert np.array_equal(probs[0], expect)


def test_ideal_walk_two_steps_quarter_half_quarter():
    probs = ideal_walk(12, 2, HADAMARD)[2]
    sites = SiteIndexing(12).site_numbers
    expect = np.zeros(12)
    expect[sites == 2] = 0.25
    expect[sites == 0] = 0.5
    expect[sites == -2] = 0.25
    assert np.abs(probs - expect).max() < 1e-14


def test_ideal_walk_parity_and_normalization():
    sites = SiteIndexing(12).site_numbers
    for k, probs in enumerate(ideal_walk(12, 5, HADAMARD)):
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        # after k steps only sites with n = k (mod 2) are occupied
        assert np.abs(probs[(np.abs(sites) % 2) != (k % 2)]).max() == 0.0


def test_ideal_walk_symmetric_coin_state():
    # coin (1, i)/sqrt(2) makes the Hadamard walk left-right symmetric
    idx = SiteIndexing(16)
    probs = ideal_walk(16, 5, HADAMARD, coin_state=(1.0, 1.0j))[5]
    by_site = {int(n): p for n, p in zip(idx.site_numbers, probs)}
    for n, p in by_site.items():
        assert p == pytest.approx(by_site[idx.wrap(-n)], abs=1e-12)


def test_ideal_walk_input_validation():
    with pytest.raises(ValueError):
        ideal_walk(1, 2, HADAMARD)
    with pytest.raises(ValueError):
        ideal_walk(6, -1, HADAMARD)


def _seam_cases(count=16, seed=31):
    """Seeded (L, N, k, pulse, theta0, coin state), every other one an odd
    N on an even ring, with k past L/2 where the seam sign first enters."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        sites = int(rng.integers(2, 9))
        spins = int(rng.integers(1, 31))
        if i % 2 == 0:
            sites += sites % 2
            spins += 1 - spins % 2
        steps = int(rng.integers(sites // 2 + 1, 2 * sites + 3))
        pulse = CoinPulse(tuple(float(h) for h in rng.uniform(-3, 3, 3)))
        theta0 = float(rng.uniform(0.2, math.pi - 0.2))
        coin = tuple(complex(*z) for z in rng.normal(size=(2, 2)))
        yield pytest.param(sites, spins, steps, pulse, theta0, coin,
                           id=f"L{sites}_N{spins}_k{steps}")


@pytest.mark.parametrize("sites,spins,steps,pulse,theta0,coin",
                         _seam_cases())
def test_walker_is_the_ideal_walk_with_the_seam_sign(sites, spins, steps,
                                                     pulse, theta0, coin):
    """Step k of the walker is sum_n A_k(n, c) R_z(n kappa)|phi_0>|c>, where
    A_k is the ideal ring walk whose seam carries (-1)^N: R_z(kappa) moves a
    site state on with a phase e^{-i kappa J}, and L such phases make the
    2 pi rotation's sign.  `ideal_walk` with that seam gives |A_k|^2."""
    idx, spin = SiteIndexing(sites, theta0), SpinQuantum(spins)
    u = coin_unitary(pulse)
    walk = evolve(initial_state(idx, spin, coin), pulse,
                  WalkSchedule.site_aligned(idx, steps))
    amp = ideal_ring_amplitudes(sites, steps, u, coin, (-1) ** spins)
    basis = np.array([aligned_site_state(idx, spin, n)
                      for n in range(sites)])
    assert np.abs(walk.up - amp[..., 0] @ basis).max() <= 1e-13
    assert np.abs(walk.down - amp[..., 1] @ basis).max() <= 1e-13
    probs = (np.abs(amp) ** 2).sum(axis=2)[:, idx.site_numbers % sites]
    assert np.abs(ideal_walk(sites, steps, u, coin, seam=(-1) ** spins)
                  - probs).max() <= 1e-13


def test_ideal_sigma_examples():
    idx = SiteIndexing(12)
    localized = (idx.site_numbers == 0).astype(float)
    assert ideal_sigma(localized, idx) == 0.0
    two_step = ideal_walk(12, 2, HADAMARD)[2]
    assert ideal_sigma(two_step, idx) \
        == pytest.approx(math.sqrt(2.0) * idx.delta_phi, abs=1e-12)


def test_ideal_sigma_of_every_step_at_once():
    idx = SiteIndexing(12)
    probs = ideal_walk(12, 5, HADAMARD)
    assert probs.shape == (6, 12)
    sigmas = ideal_sigma(probs, idx)
    assert sigmas.shape == (6,)
    for k, row in enumerate(probs):
        assert ideal_sigma(row, idx) == sigmas[k]


def test_ideal_sigma_rejects_unnormalized():
    idx = SiteIndexing(6)
    with pytest.raises(ValueError):
        ideal_sigma(np.full(6, 0.1), idx)
    # one bad row among good ones
    probs = ideal_walk(6, 2, HADAMARD)
    probs[1, 0] += 1e-6
    with pytest.raises(ValueError, match="^step 1: probabilities sum to "):
        ideal_sigma(probs, idx)


def test_ideal_sigma_rejects_nan():
    idx = SiteIndexing(6)
    with pytest.raises(ValueError, match="nan"):
        ideal_sigma(np.full(6, math.nan), idx)
