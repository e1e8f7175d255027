"""Core SU(2) numerics: Dicke-basis bookkeeping, the <j m; l 0 | j m>
Clebsch-Gordan family and Wigner rotation matrices, stable up to two_j = 200
and beyond.

All angular momenta and projections are passed as doubled integers (two_j,
two_m) so half-integer spins are exact and no floating-point comparison of
quantum numbers ever happens.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpinQuantum",
    "lnfact",
    "cg_l0_family",
    "small_d_matrix",
    "rz_phases",
]


@dataclass(frozen=True)
class SpinQuantum:
    """Total spin J stored as the integer two_j = 2J (= N, the spin count)."""

    two_j: int

    def __post_init__(self):
        if self.two_j < 0:
            raise ValueError(f"two_j must be non-negative, got {self.two_j}")

    @property
    def dim(self) -> int:
        return self.two_j + 1

    @property
    def m_values(self) -> np.ndarray:
        """Projections m = J, J-1, ..., -J (descending, index 0 is m = J)."""
        return (self.two_j - 2.0 * np.arange(self.dim)) / 2.0


_lnfact_lock = threading.Lock()
# ln(n!) for n = 0 .. len - 1, accumulated from ln(n) so adjacent differences
# reproduce ln(n) to machine precision.
_lnfact_values = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, 257)))))


def lnfact(n):
    """ln(n!) for scalar or integer-array n (shared, lock-guarded table)."""
    global _lnfact_values
    top = int(np.max(n))
    if top >= len(_lnfact_values):
        with _lnfact_lock:
            # grow in fixed blocks (257 -> 515 -> 1031 -> ...), each summed on
            # from the last stored entry, so the table's contents depend only
            # on its length and never on which n were asked for first
            while top >= len(_lnfact_values):
                n0 = len(_lnfact_values)
                tail = (np.cumsum(np.log(np.arange(n0, 2 * n0 + 1)))
                        + _lnfact_values[-1])
                _lnfact_values = np.concatenate((_lnfact_values, tail))
    return _lnfact_values[n]


def _check_jm(two_j: int, two_m: int, name: str) -> None:
    if two_j < 0:
        raise ValueError(f"{name}: negative angular momentum two_j={two_j}")
    if abs(two_m) > two_j:
        raise ValueError(f"{name}: |m| > j (two_m={two_m}, two_j={two_j})")
    if (two_j + two_m) % 2:
        raise ValueError(f"{name}: j and m differ by a non-integer "
                         f"(two_j={two_j}, two_m={two_m})")


def cg_l0_family(two_j: int, two_m: int) -> np.ndarray:
    """All coefficients <j m; l 0 | j m> for l = 0 .. 2j at once.

    Evaluated through the three-term recursion for the associated 3j symbol,
    run downward in l from the stretched (l = 2j) closed form.  Downward is
    the stable direction: the wanted solution grows toward small l, so the
    recursion stays accurate at two_j = 200 where the Racah sum loses all
    significance to cancellation.
    """
    _check_jm(two_j, two_m, "j/m")
    m = two_m / 2.0
    j = two_j / 2.0
    n = two_j + 1
    h = np.zeros(n)

    jp = (two_j + two_m) // 2
    jm = (two_j - two_m) // 2
    # stretched 3j (j j 2j; -m m 0)
    h[n - 1] = math.exp(0.5 * (4.0 * lnfact(two_j) - lnfact(2 * two_j + 1)
                               - 2.0 * lnfact(jp) - 2.0 * lnfact(jm)))
    two_j_p1 = two_j + 1.0

    def edge(l: int) -> float:
        return l * l * math.sqrt(two_j_p1 * two_j_p1 - l * l)

    if n > 1:
        l = two_j
        h[l - 1] = -(2 * l + 1) * l * (l + 1) * (2.0 * m) * h[l] / ((l + 1) * edge(l))
    for l in range(two_j - 1, 0, -1):
        h[l - 1] = (-(2 * l + 1) * l * (l + 1) * (2.0 * m) * h[l]
                    - l * edge(l + 1) * h[l + 1]) / ((l + 1) * edge(l))

    ls = np.arange(n)
    s_jm = -1.0 if jp % 2 else 1.0
    signs = np.where(ls % 2 == 0, 1.0, -1.0) * s_jm
    coeffs = signs * math.sqrt(two_j + 1.0) * h
    # self-check: l = 0 coupling is the identity
    if not abs(coeffs[0] - 1.0) <= 1e-9:
        raise ArithmeticError(
            f"CG recursion lost accuracy at two_j={two_j}, two_m={two_m}: "
            f"c_0 = {coeffs[0]!r}")
    return coeffs


# ---------------------------------------------------------------------------
# Wigner small-d rotation matrices
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _jy_eigensystem(two_j: int):
    """Eigenvectors of J_y in the Dicke basis; eigenvalues snapped to the
    exact m grid.  Cached per two_j; both arrays are read-only."""
    dim = two_j + 1
    m = (two_j - 2.0 * np.arange(dim)) / 2.0
    j = two_j / 2.0
    raise_amp = np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0))
    jplus = np.zeros((dim, dim), dtype=complex)
    jplus[np.arange(dim - 1), np.arange(1, dim)] = raise_amp
    jy = (jplus - jplus.conj().T) / 2.0j
    eigvals, eigvecs = np.linalg.eigh(jy)
    eigvals = np.round(2.0 * eigvals) / 2.0
    eigvals.flags.writeable = eigvecs.flags.writeable = False
    return eigvals, eigvecs


def small_d_matrix(spin: SpinQuantum, beta: float) -> np.ndarray:
    """d^j(beta) via the eigendecomposition of J_y: the real rotation matrix
    d^j_{m',m}(beta) = <j m'| exp(-i beta J_y) |j m>, rows and columns both
    ordered m = J .. -J.

    Overflow-free and accurate to ~1e-13 per entry for two_j <= 200; the
    direct Wigner sum formula cancels catastrophically there.
    """
    if beta == 0.0:
        return np.eye(spin.dim)
    eigvals, eigvecs = _jy_eigensystem(spin.two_j)
    phases = np.exp(-1j * beta * eigvals)
    return ((eigvecs * phases) @ eigvecs.conj().T).real


def rz_phases(spin: SpinQuantum, alpha: float) -> np.ndarray:
    """Diagonal of R_z(alpha) = exp(-i alpha J_z): e^{-i alpha m}, m = J..-J."""
    return np.exp(-1j * alpha * spin.m_values)
