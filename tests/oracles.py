"""Independent oracles used by the tests.

Everything here is built from first principles (ladder operators, closed
forms for low-rank couplings, ordinary least squares) without touching the
implementation paths under test.  The closed-form walk references at the
end take their site states from `site_state` and check the evolution.
"""

import math

import numpy as np

from blochwalk import DensityMatrix, SiteIndexing, SpinQuantum, site_state


def angular_momentum_matrices(two_j: int):
    """(Jx, Jy, Jz) in the Dicke basis, rows/columns ordered m = J .. -J,
    built directly from the ladder-operator matrix elements."""
    dim = two_j + 1
    j = two_j / 2.0
    m = (two_j - 2.0 * np.arange(dim)) / 2.0
    raise_amp = np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0))
    jplus = np.zeros((dim, dim), dtype=complex)
    jplus[np.arange(dim - 1), np.arange(1, dim)] = raise_amp
    jminus = jplus.conj().T
    jx = (jplus + jminus) / 2.0
    jy = (jplus - jminus) / 2.0j
    jz = np.diag(m).astype(complex)
    return jx, jy, jz


def cg_l1_closed_form(two_j: int, two_m: int) -> float:
    """<j m; 1 0 | j m> = m / sqrt(j (j+1))."""
    j = two_j / 2.0
    m = two_m / 2.0
    return m / math.sqrt(j * (j + 1.0))


def cg_l2_closed_form(two_j: int, two_m: int) -> float:
    """<j m; 2 0 | j m> = (3 m^2 - j (j+1)) / sqrt((2j-1) j (j+1) (2j+3))."""
    j = two_j / 2.0
    m = two_m / 2.0
    return (3.0 * m * m - j * (j + 1.0)) / math.sqrt(
        (2.0 * j - 1.0) * j * (j + 1.0) * (2.0 * j + 3.0))


def linear_fit_r2(x, y):
    """Least-squares line fit; returns (slope, intercept, R^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return float(slope), float(intercept), 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------------------
# Closed-form references for the first two Hadamard steps
# ---------------------------------------------------------------------------

def aligned_site_state(indexing: SiteIndexing, spin: SpinQuantum,
                       n: int) -> np.ndarray:
    """Site state in the rotation-aligned gauge R_z(n dphi)|phi_0>.

    Differs from site_state by the global phase e^{-i J n dphi}; this is the
    gauge in which the conditional shift maps site n to site n+1 with no
    extra phase, and in which the two-step closed form below holds exactly.
    """
    base = site_state(indexing, spin, n)
    phase = np.exp(-1j * spin.j * n * indexing.delta_phi)
    return phase * base


def step1_reference(indexing: SiteIndexing, spin: SpinQuantum) -> DensityMatrix:
    """rho_w after one Hadamard step: (|phi_1><phi_1| + |phi_-1><phi_-1|)/2."""
    p1 = site_state(indexing, spin, 1)
    m1 = site_state(indexing, spin, -1)
    rho = 0.5 * (np.outer(p1, p1.conj()) + np.outer(m1, m1.conj()))
    return DensityMatrix(spin, rho)


def step2_reference(indexing: SiteIndexing, spin: SpinQuantum) -> DensityMatrix:
    """rho_w after two Hadamard steps:
    (|phi_2>+|phi_0>)(<phi_2|+<phi_0|)/4 + (|phi_0>-|phi_-2>)(h.c.)/4,
    with the sites taken in the rotation-aligned gauge."""
    a2 = aligned_site_state(indexing, spin, 2)
    a0 = aligned_site_state(indexing, spin, 0)
    am2 = aligned_site_state(indexing, spin, -2)
    plus = a2 + a0
    minus = a0 - am2
    rho = 0.25 * (np.outer(plus, plus.conj()) + np.outer(minus, minus.conj()))
    return DensityMatrix(spin, rho)
