"""Clebsch-Gordan coefficients, rotation matrices and the Dicke frame.

The Racah-sum `cg_coefficient` and the `rotated_dicke_frame` are oracles in
`tests/oracles.py`; their checks here vouch for them as references for
`cg_l0_family` and the Wigner grid."""

import math

import numpy as np
import pytest

from blochwalk import (SpinQuantum, cg_l0_family, coherent_state, rz_phases,
                       small_d_matrix)
from blochwalk.su2 import _jy_eigensystem

from oracles import (angular_momentum_matrices, cg_coefficient,
                     cg_l1_closed_form, cg_l2_closed_form,
                     jx_eigensystem_by_eigh, rotated_dicke_frame,
                     small_d_by_jy)


# ---------------------------------------------------------------------------
# SpinQuantum bookkeeping
# ---------------------------------------------------------------------------

def test_spin_quantum_properties():
    spin = SpinQuantum(5)
    assert spin.two_j == 5
    assert spin.dim == 6
    assert np.array_equal(spin.m_values, [2.5, 1.5, 0.5, -0.5, -1.5, -2.5])


def test_spin_quantum_rejects_negative():
    with pytest.raises(ValueError):
        SpinQuantum(-1)


# ---------------------------------------------------------------------------
# Clebsch-Gordan coefficients
# ---------------------------------------------------------------------------

def test_cg_trivial_coupling_is_identity():
    # coupling with l = 0 leaves the state alone
    for two_j in (1, 2, 5, 8):
        for two_m in range(-two_j, two_j + 1, 2):
            assert cg_coefficient(two_j, two_m, 0, 0, two_j, two_m) \
                == pytest.approx(1.0, abs=1e-14)


def test_cg_spin_half_pair():
    # two spin-1/2: singlet and triplet amplitudes 1/sqrt(2)
    r = 1.0 / math.sqrt(2.0)
    assert cg_coefficient(1, 1, 1, -1, 2, 0) == pytest.approx(r, abs=1e-14)
    assert cg_coefficient(1, -1, 1, 1, 2, 0) == pytest.approx(r, abs=1e-14)
    assert cg_coefficient(1, 1, 1, -1, 0, 0) == pytest.approx(r, abs=1e-14)
    assert cg_coefficient(1, -1, 1, 1, 0, 0) == pytest.approx(-r, abs=1e-14)


@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 6, 8])
def test_cg_rank1_rank2_closed_forms(two_j):
    for two_m in range(-two_j, two_j + 1, 2):
        got1 = cg_coefficient(two_j, two_m, 2, 0, two_j, two_m)
        assert got1 == pytest.approx(cg_l1_closed_form(two_j, two_m),
                                     abs=1e-13)
        if two_j >= 2:
            got2 = cg_coefficient(two_j, two_m, 4, 0, two_j, two_m)
            assert got2 == pytest.approx(cg_l2_closed_form(two_j, two_m),
                                         abs=1e-13)


@pytest.mark.parametrize("two_j1,two_j2", [(1, 1), (2, 2), (3, 1), (4, 4),
                                           (8, 6)])
def test_cg_unitarity(two_j1, two_j2):
    # the CG matrix from |m1 m2> to |J M> is orthogonal
    uncoupled = [(m1, m2) for m1 in range(-two_j1, two_j1 + 1, 2)
                 for m2 in range(-two_j2, two_j2 + 1, 2)]
    coupled = [(tJ, tM) for tJ in range(abs(two_j1 - two_j2),
                                        two_j1 + two_j2 + 1, 2)
               for tM in range(-tJ, tJ + 1, 2)]
    u = np.array([[cg_coefficient(two_j1, m1, two_j2, m2, tJ, tM)
                   for (tJ, tM) in coupled] for (m1, m2) in uncoupled])
    assert u.shape[0] == u.shape[1]
    assert np.abs(u.T @ u - np.eye(len(coupled))).max() < 1e-12


def test_cg_selection_rules_return_zero():
    assert cg_coefficient(2, 2, 2, 2, 2, 2) == 0.0       # M != m1 + m2
    assert cg_coefficient(2, 0, 2, 0, 8, 0) == 0.0       # triangle violated
    # antisymmetric coupling of two m = 0 states vanishes
    assert cg_coefficient(2, 0, 2, 0, 2, 0) == pytest.approx(0.0, abs=1e-14)


def test_cg_invalid_quantum_numbers_raise():
    with pytest.raises(ValueError):
        cg_coefficient(2, 4, 2, 0, 2, 0)     # |m| > j
    with pytest.raises(ValueError):
        cg_coefficient(2, 1, 2, 0, 2, 0)     # j, m parity mismatch
    with pytest.raises(ValueError):
        cg_coefficient(-2, 0, 2, 0, 2, 0)    # negative j
    with pytest.raises(ValueError):
        cg_l0_family(-1)


@pytest.mark.parametrize("two_j", [1, 2, 3, 5, 10, 20])
def test_cg_l0_family_matches_general_formula(two_j):
    table = cg_l0_family(two_j)
    assert table.shape == (two_j + 1, two_j + 1)
    for row, two_m in zip(table, range(two_j, -two_j - 1, -2)):
        direct = [cg_coefficient(two_j, two_m, 2 * l, 0, two_j, two_m)
                  for l in range(two_j + 1)]
        assert np.abs(row - direct).max() < 1e-11


def test_cg_l0_family_stable_at_large_j():
    fam = cg_l0_family(200)[40]             # two_m = 200 - 2 * 40 = 120
    assert np.isfinite(fam).all()
    assert fam[0] == pytest.approx(1.0, abs=1e-11)
    assert fam[1] == pytest.approx(cg_l1_closed_form(200, 120), abs=1e-11)
    assert fam[2] == pytest.approx(cg_l2_closed_form(200, 120), abs=1e-11)


@pytest.mark.parametrize("two_j", [1, 7, 200, 1600])
def test_cg_l0_family_sum_rule_per_m(two_j):
    # sum_l (2l+1) (j j l; -m m 0)^2 = 1, i.e. sum_l (2l+1) c_l^2 = 2j+1 for
    # every m, with c_0 = 1 exactly; 1600 is past where a closed-form start
    # of about 2^-N leaves the doubles
    table = cg_l0_family(two_j)
    assert np.array_equal(table[:, 0], np.ones(two_j + 1))
    lcoef = 2.0 * np.arange(two_j + 1) + 1.0
    assert np.abs(table * table @ lcoef / (two_j + 1) - 1.0).max() < 1e-12


# ---------------------------------------------------------------------------
# small-d rotation matrices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("two_j", [*range(41), 99, 100, 401, 800, 1201,
                                   1599, 1600])
def test_jx_eigensystem_matches_dense_eigh(two_j):
    # the recursion's eigenvalues are the exact m grid, and each column is
    # the eigensolver's up to sign; past about 2J = 1600 the oracle's dense
    # eigh takes over a second.  Uncached, so the large spins are not kept.
    lam, r, _ = _jy_eigensystem.__wrapped__(two_j)
    assert np.array_equal(lam, np.arange(two_j + 1) - two_j / 2.0)
    _, v = jx_eigensystem_by_eigh(two_j)
    sign = np.where(np.einsum("ak,ak->k", r, v) < 0.0, -1.0, 1.0)
    assert np.abs(r - v * sign).max() <= 1e-13
    assert np.abs(r.T @ r - np.eye(two_j + 1)).max() <= 1e-13


@pytest.mark.parametrize("two_j", [0, 1, 2, 3, 10, 201])
def test_quarter_turn_signs_match_the_powers_of_i(two_j):
    # s[a, b] = Re i^(a-b) + Im i^(a-b) bit for bit, from e^{i pi (a-b)/2}
    # rounded to its exact parts
    _, _, s = _jy_eigensystem.__wrapped__(two_j)
    a = np.arange(two_j + 1)
    z = np.exp(0.5j * np.pi * (a[:, None] - a[None, :]))
    assert s.shape == (two_j + 1, two_j + 1)
    assert np.array_equal(s, np.rint(z.real) + np.rint(z.imag))


def test_d_matrix_spin_half_analytic():
    beta = 0.7
    c, s = math.cos(beta / 2.0), math.sin(beta / 2.0)
    d = small_d_matrix(SpinQuantum(1), beta)
    assert np.abs(d - [[c, -s], [s, c]]).max() < 1e-14


def test_d_matrix_spin_one_analytic():
    beta = 1.3
    c, s = math.cos(beta), math.sin(beta)
    r = s / math.sqrt(2.0)
    expect = np.array([
        [(1 + c) / 2, -r, (1 - c) / 2],
        [r, c, -r],
        [(1 - c) / 2, r, (1 + c) / 2],
    ])
    d = small_d_matrix(SpinQuantum(2), beta)
    assert np.abs(d - expect).max() < 1e-14


def test_d_matrix_identity_at_zero_is_exact():
    d = small_d_matrix(SpinQuantum(7), 0.0)
    assert np.array_equal(d, np.eye(8))


@pytest.mark.parametrize("two_j", [2, 10, 100])
def test_d_matrix_composition(two_j):
    spin = SpinQuantum(two_j)
    a, b = 0.61, 1.97
    lhs = small_d_matrix(spin, a) @ small_d_matrix(spin, b)
    rhs = small_d_matrix(spin, a + b)
    assert np.abs(lhs - rhs).max() < 1e-10


@pytest.mark.parametrize("two_j", [4, 41, 200])
def test_d_matrix_orthogonality_and_symmetry(two_j):
    spin = SpinQuantum(two_j)
    d = small_d_matrix(spin, 2.1)
    assert np.abs(d @ d.T - np.eye(spin.dim)).max() < 1e-10
    # d_{m',m} = (-1)^{m'-m} d_{m,m'}
    k = np.arange(spin.dim)
    signs = np.where((k[:, None] - k[None, :]) % 2 == 0, 1.0, -1.0)
    assert np.abs(d - signs * d.T).max() < 1e-10


@pytest.mark.parametrize("two_j", [1, 2, 41, 200])
def test_d_matrix_matches_complex_jy_reference(two_j):
    spin = SpinQuantum(two_j)
    for beta in (1e-3, 0.7, math.pi / 2.0, 2.9, math.pi):
        assert np.abs(small_d_matrix(spin, beta)
                      - small_d_by_jy(spin, beta)).max() < 1e-13


@pytest.mark.parametrize("beta", [1e-3, math.pi / 2.0, math.pi - 1e-3])
def test_d_matrix_finite_at_large_j(beta):
    d = small_d_matrix(SpinQuantum(200), beta)
    assert np.isfinite(d).all()
    assert np.abs(d).max() <= 1.0 + 1e-12
    assert np.abs((d * d).sum(axis=1) - 1.0).max() < 1e-11


# ---------------------------------------------------------------------------
# z-rotations and the rotated Dicke frame
# ---------------------------------------------------------------------------

def test_rz_phases_examples():
    spin = SpinQuantum(1)
    assert np.array_equal(rz_phases(spin, 0.0), [1.0, 1.0])
    got = rz_phases(spin, math.pi)
    assert np.abs(got - [-1j, 1j]).max() < 1e-15
    assert np.abs(np.abs(rz_phases(SpinQuantum(9), 2.345)) - 1.0).max() < 1e-15


def test_rotated_frame_is_unitary():
    spin = SpinQuantum(10)
    u = rotated_dicke_frame(spin, 1.1, -2.3)
    assert np.abs(u.conj().T @ u - np.eye(spin.dim)).max() < 1e-12


@pytest.mark.parametrize("two_j", [1, 2, 5, 20])
def test_rotated_frame_diagonalizes_projected_spin(two_j):
    # column m of the frame is an eigenvector of n.J with eigenvalue m
    spin = SpinQuantum(two_j)
    jx, jy, jz = angular_momentum_matrices(two_j)
    for theta, phi in [(0.4, 0.9), (2.2, -1.7), (math.pi / 2.0, 0.0)]:
        n_dot_j = (math.sin(theta) * math.cos(phi) * jx
                   + math.sin(theta) * math.sin(phi) * jy
                   + math.cos(theta) * jz)
        u = rotated_dicke_frame(spin, theta, phi)
        resid = n_dot_j @ u - u * spin.m_values[None, :]
        assert np.abs(resid).max() < 1e-10


def test_rotated_frame_top_column_is_coherent_state():
    # the m = J column equals |theta, phi> up to the phase e^{-i J phi}
    spin = SpinQuantum(31)
    theta, phi = 1.9, 0.8
    col = rotated_dicke_frame(spin, theta, phi)[:, 0]
    amps = coherent_state(spin, theta, phi)
    phase = np.exp(0.5j * spin.two_j * phi)
    assert np.abs(col * phase - amps).max() < 1e-12
