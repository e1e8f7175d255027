"""Spin coherent states, the site ring and the analytic overlap formulas."""

import math

import numpy as np
import pytest

from blochwalk import SiteIndexing, SpinQuantum, coherent_state, site_state

from oracles import angular_momentum_matrices, overlap_modulus


# ---------------------------------------------------------------------------
# coherent-state amplitudes
# ---------------------------------------------------------------------------

def test_pole_states_are_exact_dicke_states():
    spin = SpinQuantum(8)
    north = coherent_state(spin, 0.0, 1.234)
    south = coherent_state(spin, math.pi, -0.7)
    e_top = np.zeros(9)
    e_top[0] = 1.0
    e_bot = np.zeros(9)
    e_bot[-1] = 1.0
    assert np.array_equal(north, e_top + 0j)
    # the south pole state carries the azimuthal phase e^{i 2J phi}
    assert np.abs(np.abs(south) - e_bot).max() < 1e-15
    assert south[-1] == pytest.approx(np.exp(1j * 8 * -0.7), abs=1e-15)


def test_spin_one_amplitudes_analytic():
    theta, phi = 1.1, -0.6
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    expect = np.array([c * c,
                       math.sqrt(2.0) * c * s * np.exp(1j * phi),
                       s * s * np.exp(2j * phi)])
    got = coherent_state(SpinQuantum(2), theta, phi)
    assert np.abs(got - expect).max() < 1e-14


def test_equator_top_amplitude_is_two_to_minus_j():
    # at theta = pi/2 the amplitude on m = J is cos^{2J}(pi/4) = 2^{-J}
    state = coherent_state(SpinQuantum(50), math.pi / 2.0, 0.0)
    assert state[0].real == pytest.approx(2.0 ** -25, rel=1e-12)
    assert state[0].imag == 0.0


@pytest.mark.parametrize("theta", [1e-8, 0.3, math.pi / 2.0, math.pi - 1e-8])
def test_unit_norm_at_large_j(theta):
    state = coherent_state(SpinQuantum(200), theta, 2.5)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("two_j", [10, 200, 1000, 3000])
def test_norm_is_one_to_rounding(two_j):
    # the cumulative log-factorial sums alone miss 1 by up to 3.4e-11 at
    # 2J = 3000; the normalized magnitudes miss it by a few units of 1e-16
    for theta in (0.3, 1.0, math.pi / 2.0):
        state = coherent_state(SpinQuantum(two_j), theta, 0.7)
        assert abs(math.fsum((state * state.conj()).real) - 1.0) <= 1e-15


def test_theta_out_of_range_raises():
    with pytest.raises(ValueError):
        coherent_state(SpinQuantum(2), -0.1, 0.0)
    with pytest.raises(ValueError):
        coherent_state(SpinQuantum(2), math.pi + 0.1, 0.0)


@pytest.mark.parametrize("two_j", [1, 10, 50])
def test_bloch_vector_expectations(two_j):
    # <J> points along (theta, phi) with length J
    jx, jy, jz = angular_momentum_matrices(two_j)
    j = two_j / 2.0
    rng = np.random.default_rng(7)
    for _ in range(5):
        theta = rng.uniform(0.05, math.pi - 0.05)
        phi = rng.uniform(-math.pi, math.pi)
        v = coherent_state(SpinQuantum(two_j), theta, phi)
        ex = float(np.vdot(v, jx @ v).real)
        ey = float(np.vdot(v, jy @ v).real)
        ez = float(np.vdot(v, jz @ v).real)
        assert ex == pytest.approx(j * math.sin(theta) * math.cos(phi),
                                   abs=1e-10 * j)
        assert ey == pytest.approx(j * math.sin(theta) * math.sin(phi),
                                   abs=1e-10 * j)
        assert ez == pytest.approx(j * math.cos(theta), abs=1e-10 * j)


# ---------------------------------------------------------------------------
# site ring indexing
# ---------------------------------------------------------------------------

def test_site_numbers_balanced_ranges():
    assert np.array_equal(SiteIndexing(6).site_numbers, [-2, -1, 0, 1, 2, 3])
    assert np.array_equal(SiteIndexing(5).site_numbers, [-2, -1, 0, 1, 2])


def test_wrap_into_balanced_range():
    idx = SiteIndexing(6)
    assert idx.wrap(3) == 3
    assert idx.wrap(4) == -2
    assert idx.wrap(-3) == 3
    assert idx.wrap(7) == 1
    assert idx.phi(-1) == pytest.approx(-idx.delta_phi)


def test_site_state_is_periodic():
    idx = SiteIndexing(6)
    spin = SpinQuantum(20)
    a = site_state(idx, spin, 2)
    b = site_state(idx, spin, 2 + 6)
    c = site_state(idx, spin, 2 - 12)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_too_few_sites_raise():
    with pytest.raises(ValueError):
        SiteIndexing(1)


# ---------------------------------------------------------------------------
# overlaps
# ---------------------------------------------------------------------------

def test_overlap_limits():
    spin = SpinQuantum(50)
    assert overlap_modulus(spin, 0.7, 0.3, 0.7, 0.3) == 1.0
    # antipodal points are orthogonal
    assert overlap_modulus(spin, 0.7, 0.3, math.pi - 0.7,
                           0.3 + math.pi) == pytest.approx(0.0, abs=1e-15)


def test_overlap_sixty_degree_separation():
    # on the equator, phi separation pi/3 gives cos^2(Theta/2) = 3/4
    spin = SpinQuantum(50)
    got = overlap_modulus(spin, math.pi / 2.0, 0.0, math.pi / 2.0,
                          math.pi / 3.0)
    assert got == pytest.approx(0.75 ** 25, rel=1e-12)


def test_neighbor_overlap_forty_sites():
    # L = 40, J = 100: adjacent sites overlap [(cos(pi/20)+1)/2]^100 ~ 0.54
    idx = SiteIndexing(40)
    spin = SpinQuantum(200)
    got = overlap_modulus(spin, math.pi / 2.0, idx.delta_phi,
                          math.pi / 2.0, 0.0)
    expect = ((math.cos(math.pi / 20.0) + 1.0) / 2.0) ** 100
    assert got == pytest.approx(expect, rel=1e-14)
    assert 0.53 < got < 0.55
    numeric = abs(np.vdot(site_state(idx, spin, 1), site_state(idx, spin, 0)))
    assert got == pytest.approx(numeric, abs=1e-12)


@pytest.mark.parametrize("two_j", [1, 10, 50, 200])
def test_overlap_matches_numeric_inner_product(two_j):
    spin = SpinQuantum(two_j)
    rng = np.random.default_rng(two_j)
    for _ in range(20):
        t1, t2 = rng.uniform(0.0, math.pi, 2)
        p1, p2 = rng.uniform(-math.pi, math.pi, 2)
        numeric = abs(np.vdot(coherent_state(spin, t1, p1),
                              coherent_state(spin, t2, p2)))
        assert overlap_modulus(spin, t1, p1, t2, p2) \
            == pytest.approx(numeric, abs=1e-12)


def test_overlap_decreases_with_separation_and_spin():
    idx = SiteIndexing(40)
    spin = SpinQuantum(100)
    vals = [overlap_modulus(spin, math.pi / 2.0, n * idx.delta_phi,
                            math.pi / 2.0, 0.0) for n in range(0, 21)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    fixed = [overlap_modulus(SpinQuantum(tj), math.pi / 2.0, idx.delta_phi,
                             math.pi / 2.0, 0.0)
             for tj in (10, 50, 100, 200)]
    assert all(a > b for a, b in zip(fixed, fixed[1:]))

