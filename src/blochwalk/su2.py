"""Core SU(2) numerics: Dicke-basis bookkeeping, the <j m; l 0 | j m>
Clebsch-Gordan table for every m at once (a self-normalizing recursion, no
factorials, so no limit on two_j) and Wigner rotation matrices.

All angular momenta and projections are passed as doubled integers (two_j,
two_m) so half-integer spins are exact and no floating-point comparison of
quantum numbers ever happens.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["SpinQuantum", "cg_l0_family", "small_d_matrix", "rz_phases"]


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


# a column's recursion values are divided by this once they pass it; a power
# of two, so the division is exact
_BIG = 2.0 ** 500


def _recursion(x, a, b, c) -> np.ndarray:
    """h[i + 1] = (a[i] x h[i] - b[i] h[i-1]) / c[i] for every column of x
    at once from h[0] = 1, as a square array whose rows past len(c) stay
    zero; h[-1], the last row, is still 0 when i = 0.  A column's values so
    far are divided by 2^500 whenever it passes that bound."""
    h = np.zeros((len(x), len(x)))
    h[0] = 1.0
    for i in range(len(c)):
        h[i + 1] = (a[i] * x * h[i] - b[i] * h[i - 1]) / c[i]
        big = np.abs(h[i + 1]) > _BIG
        if big.any():
            h[:i + 2, big] /= _BIG
    return h


def cg_l0_family(two_j: int) -> np.ndarray:
    """The table c[i, l] = <j m; l 0 | j m> for m = J - i (rows m = J..-J)
    and l = 0 .. 2J (columns).

    All m run at once through the three-term recursion of the 3j symbol
    (j j l; -m m 0) (`_recursion`) with `a` negated, downward in l (the
    stable direction) from 1 at l = 2j and 0 at l = 2j + 1: row l comes out
    times (-1)^(2j-l) exactly, so each row, divided in place by its l = 0
    value, has c[:, 0] = 1 and the sign (-1)^l, with no closed-form start
    (about 2^-2J, which leaves the doubles past 2J ~ 1040) at any j.
    """
    if two_j < 0:
        raise ValueError(f"negative angular momentum two_j={two_j}")
    n = two_j + 1
    ls = np.arange(n + 1)
    # l^2 sqrt((2j+1)^2 - l^2)
    edge = ls * ls * np.sqrt(float(n * n) - ls * ls)
    down = ls[two_j:0:-1]                  # the step from l to l - 1
    h = _recursion(two_j - 2.0 * np.arange(n),
                   (2 * down + 1) * down * (down + 1),
                   down * edge[down + 1], (down + 1) * edge[down])[::-1]
    h /= h[0]
    return h.T


@functools.lru_cache(maxsize=4)
def _jy_eigensystem(two_j: int):
    """(lam, R, s), all read-only: J_x = R diag(lam) R^T in the Dicke basis
    with real orthogonal R, the exact eigenvalues lam_k = k - J in
    ascending order, and the quarter-turn signs s[a, b] = Re i^(a-b) +
    Im i^(a-b), a view of its values for a - b = 2J .. -2J.

    J_y = P J_x P^+ with P = diag(i^a), so J_y = V diag(lam) V^+ with
    V = P R: the J_y eigensystem without complex arithmetic.  J_x is
    tridiagonal, c_a = <a-1|J_x|a> = sqrt(a(2J+1-a))/2, so every column
    obeys c_a v_{a-1} + c_{a+1} v_{a+1} = lam_k v_a: all columns run at
    once through `_recursion` from 1 at the edge row a = 0 to the middle
    row, the direction in which the wanted solution grows.  J_x commutes
    with the index reversal, so the other half follows from the parity
    v_{2J-a} = (-1)^(2J-k) v_a (at odd 2J+1 a column of parity -1 has 0 in
    its middle row), and each column is finally normalized.  No
    eigensolver, O(J^2) work.  Cached for four spins: an entry holds R's
    8 (2J+1)^2 bytes (0.3 MB at N = 200, 8 MB at N = 1000), and a scan
    cycling up to four spin counts still hits."""
    n = two_j + 1
    lam = np.arange(n) - two_j / 2.0
    a = np.arange(n)
    c = np.sqrt(a * (n - a)) / 2.0
    r = _recursion(lam, np.ones(n), c, c[1:(n + 1) // 2])
    parity = np.where((two_j - a) % 2, -1.0, 1.0)
    np.multiply(r[:n // 2][::-1], parity, out=r[n - n // 2:])
    if n % 2:
        r[n // 2, parity < 0] = 0.0
    r /= np.sqrt(np.einsum("ak,ak->k", r, r))
    lam.flags.writeable = r.flags.writeable = False
    # s[a, b] = table[2J - a + b]; the view is read-only
    table = np.array([1.0, 1.0, -1.0, -1.0])[np.arange(two_j, -n, -1) % 4]
    return lam, r, np.lib.stride_tricks.sliding_window_view(table, n)[::-1]


def small_d_matrix(spin: SpinQuantum, beta: float) -> np.ndarray:
    """d^j(beta) from the real J_x eigensystem: the real rotation matrix
    d^j_{m',m}(beta) = <j m'| exp(-i beta J_y) |j m>, rows and columns both
    ordered m = J .. -J.

    d = P R e^{-i lam beta} R^T P^+ = s o (R diag(cos lam beta +
    sin lam beta) R^T): the spectrum is symmetric, and diag((-1)^a) maps
    each eigenvector of lam to one of -lam, so the cosine part vanishes
    where a - b is odd and the sine part where it is even.  Overflow-free
    and accurate to ~1e-13 per entry for two_j <= 200; the direct Wigner
    sum formula cancels catastrophically there.
    """
    if beta == 0.0:
        return np.eye(spin.dim)
    eigvals, r, signs = _jy_eigensystem(spin.two_j)
    phase = beta * eigvals
    return signs * ((r * (np.cos(phase) + np.sin(phase))) @ r.T)


def rz_phases(spin: SpinQuantum, alpha: float) -> np.ndarray:
    """Diagonal of R_z(alpha) = exp(-i alpha J_z): e^{-i alpha m}, m = J..-J."""
    return np.exp(-1j * alpha * spin.m_values)
