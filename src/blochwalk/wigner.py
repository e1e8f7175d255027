"""SU(2) Wigner function via the Stratonovich-Weyl kernel, and the exact
azimuthal marginal with its site-binned probabilities and its spread.

Both go through the same harmonics.  With K = d(theta) diag(Delta)
d(theta)^T, W(theta, phi) = sum_{a,b} K[a, b] rho[a, b] e^{i q phi}
(q = b - a), so each theta gives a finite Fourier series in phi whose
harmonics are the diagonal sums of K o rho.  Every kernel is real
symmetric, so its diagonals q and n - q (n = 2J + 1) share one row of
length n: each is kept as its n//2 + 1 wrapped diagonals kw[p, a] =
K[a, (a+p) mod n], half its n^2 entries.  The marginal integrates W
sin(theta) over theta first, which turns K into one state-independent
kernel (`_theta_kernel`, closed form from the J_y eigensystem), against
which a pure state's amplitudes give the harmonics of every step at once;
its site bins and spread are closed-form sums over them.

The grid serves `wigner` output only: Gauss-Legendre nodes in cos(theta)
(`_gauss_legendre`, by Newton iteration in theta) crossed with a uniform
phi grid on [-pi, pi).  The cos-theta rule is exact only for the even-q
harmonics of W, which have degree 2J in cos theta; an odd-q harmonic
carries a factor sin theta and converges only algebraically in n_theta.
The kernels of half the nodes are cached (`_theta_frame_stack`), and a
grid costs real products of them with the state, written straight into
its FFT buffer (`_grid_harmonics`).  Grid rows, P(phi) and the site bins
are all periodic sums of harmonics, each buffer summed by one routine
(`_periodic_sum`, one inverse FFT per column).  What each builder holds
is charged from its shapes at the end of this module.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
# numpy loads its fft module on first use; loading it with this module keeps
# that cost out of the first periodic sum, which the CLI may run on its own
import numpy.fft  # noqa: F401

from .coherent import SiteIndexing
from .su2 import SpinQuantum, _jy_eigensystem, cg_l0_family, small_d_matrix
from .walk import CoinWalkerState, DensityMatrix, _unit_totals

__all__ = ["NumericalInvariantError", "WignerGrid", "PhiDistribution",
           "kernel_weights", "wigner_grid", "marginal_phi",
           "sigma_from_marginal"]


class NumericalInvariantError(RuntimeError):
    """A numerical identity that should hold to tolerance was violated."""


# what a grid whose normalization misses 1 needs: `wigner_grid` warns with
# it, and the CLI's exit-3 line carries it
_GRID_ADVICE = ("increase the grid resolution (n_theta >= 2J+2 and "
                "n_phi > 2J recommended)")


# four spins, as `_theta_kernel` and `_jy_eigensystem` keep
@functools.lru_cache(maxsize=4)
def kernel_weights(spin: SpinQuantum) -> np.ndarray:
    """Stratonovich-Weyl kernel eigenvalues (read-only), indexed m = J..-J:
    Delta_{j,m} = sum_l (2l+1)/(2j+1) <j m; l 0 | j m>, l = 0 .. 2j, each an
    exactly rounded sum of one `cg_l0_family` row, weighted a row at a time.

    They sum to 1 (only the l = 0 coupling survives the m-sum) but are not
    symmetric under m -> -m: flipping m flips the sign of every odd-l
    coupling, e.g. (1 +/- sqrt 3)/2 for spin 1/2.  Raises
    NumericalInvariantError when a row misses the sum rule
    sum_l (2l+1) <j m; l 0 | j m>^2 = 2j+1 by more than 1e-10.
    """
    tj = spin.two_j
    lcoef = (2.0 * np.arange(tj + 1) + 1.0) / (tj + 1.0)
    table = cg_l0_family(tj)
    residual = np.abs(np.einsum("ml,ml,l->m", table, table, lcoef) - 1).max()
    if not residual <= 1e-10:
        raise NumericalInvariantError(
            f"Clebsch-Gordan sum rule off by {residual:.2e} at two_j={tj}")
    delta = np.fromiter((math.fsum(row * lcoef) for row in table), float)
    delta.flags.writeable = False       # cached: callers share this array
    return delta


def _phi_nodes(n_phi: int) -> np.ndarray:
    """n_phi uniform nodes on [-pi, pi)."""
    return -math.pi + 2.0 * math.pi * np.arange(n_phi) / n_phi


@dataclass(frozen=True)
class WignerGrid:
    """W sampled on theta quadrature nodes x phi grid."""

    spin: SpinQuantum
    theta_nodes: np.ndarray
    theta_weights: np.ndarray     # Gauss-Legendre weights in cos(theta)
    phi_nodes: np.ndarray         # uniform on [-pi, pi)
    values: np.ndarray = field(repr=False)   # (n_theta, n_phi)
    state: object = field(repr=False)        # the state W was built from

    @property
    def phi_spacing(self) -> float:
        """Cell width of the uniform phi grid on [-pi, pi)."""
        return 2.0 * math.pi / len(self.phi_nodes)

    def normalization(self) -> float:
        """(2J+1)/(4 pi) * discretized integral of W over the sphere."""
        return float((self.spin.two_j + 1) / (4.0 * math.pi)
                     * self.theta_weights @ self.values.sum(axis=1)
                     * self.phi_spacing)


# Four entries of 16 n_theta bytes, as the per-spin tables keep: a scan
# cycling three resolutions misses only on its first three grids.
@functools.lru_cache(maxsize=4)
def _gauss_legendre(n_theta: int):
    """(theta_nodes, weights) of the n_theta-node Gauss-Legendre rule in
    cos(theta), theta ascending in (0, pi), both read-only.

    The nodes theta <= pi/2 come from Newton iteration in theta on
    P_n(cos theta) (n = n_theta; Hale and Townsend, SIAM J. Sci. Comput. 35,
    A652 (2013)), started from Tricomi's estimates, with P_n and P_{n-1}
    from the three-term recurrence written in u = 1 - cos theta =
    2 sin^2(theta/2) and the differences D_k = P_k - P_{k-1}, so that the
    end nodes keep their digits.  The rest are pi - theta, exactly
    mirrored, as `_theta_frame_stack` assumes; at odd n the middle node is
    pi/2, the zero of P_n(0).  The weights are
    2 sin^2(theta) / (n (P_{n-1} - cos theta P_n))^2 at the converged
    nodes.  Three Newton steps reach the rounding level from the estimates,
    and a fourth evaluation gives the weights: O(n) memory, O(n^2) time.
    """
    n = n_theta
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = (4.0 * k - 1.0) * math.pi / (4.0 * n + 2.0)
    theta += (n - 1.0) / (8.0 * n ** 3) / np.tan(theta)
    if n % 2:
        theta[-1] = 0.5 * math.pi
    converged = False
    while True:
        u = np.sin(0.5 * theta)
        u *= u
        u *= 2.0
        p, d = 1.0 - u, -u                  # P_1, D_1
        for j in range(1, n):
            # D_{j+1} = (j D_j - (2j + 1) u P_j) / (j + 1)
            d *= j
            d -= (2 * j + 1) * u * p
            d /= j + 1
            p += d
        dp = u * p - d                      # P_{n-1} - cos(theta) P_n
        if converged:
            break
        step = np.sin(theta) * p / (n * dp)
        if n % 2:
            step[-1] = 0.0
        theta += step
        converged = np.abs(step).max() < 1e-10
    w = np.sin(theta) / (n * dp)
    w *= w
    w *= 2.0
    theta = np.concatenate((theta, math.pi - theta[:n // 2][::-1]))
    w = np.concatenate((w, w[:n // 2][::-1]))
    for a in (theta, w):
        a.flags.writeable = False       # cached: every grid shares these
    return theta, w


def _wrapped_index(n: int) -> np.ndarray:
    """The flat index lo * n + hi of the wrapped diagonals p = 0 .. n//2 of
    an n x n array, (n//2 + 1, n), built in place for one `take`: (lo, hi)
    = (min, max) of (a, (a + p) mod n) is on or above the main diagonal; the
    head a < n - p of row p is diagonal p, the tail diagonal n - p."""
    a = np.arange(n)
    b = np.arange(n // 2 + 1)[:, None] + a
    b %= n
    lo = np.minimum(a, b)
    lo *= n
    lo += np.maximum(a, b, out=b)
    return lo


def _stack_shape(two_j: int, n_theta: int) -> tuple[int, int, int]:
    """The shape of `_theta_frame_stack`'s kernel array, unbuilt."""
    return (two_j + 1) // 2 + 1, (n_theta + 1) // 2, two_j + 1


# One entry of 8 prod(`_stack_shape`) bytes: a run's grids share one key,
# and a scan cycling three keys misses on every grid at one entry or two.
@functools.lru_cache(maxsize=1)
def _theta_frame_stack(two_j: int, n_theta: int) -> np.ndarray:
    """The wrapped kernel diagonals of one (j, resolution), read-only.  The
    nodes are symmetric about pi/2 and K(pi - theta) = J K(theta) J (J
    reverses the index), so only the kernels
    K_i = d(theta_i) diag(Delta) d(theta_i)^T of the ceil(n_theta/2)
    `_gauss_legendre` nodes with theta_i <= pi/2 are kept, as
    kw[p, i, a] = K_i[a, (a + p) mod n] (n = 2J + 1, p = 0 .. n//2; at even
    n, row n/2 holds diagonal n/2 twice), each entry read from K_i's upper
    triangle, as the computed product is symmetric only to rounding."""
    spin = SpinQuantum(two_j)
    delta = kernel_weights(spin)
    flat = _wrapped_index(spin.dim)
    kw = np.empty(_stack_shape(two_j, n_theta))
    for i, theta in enumerate(_gauss_legendre(n_theta)[0][:kw.shape[1]]):
        d = small_d_matrix(spin, float(theta))
        kw[:, i] = ((d * delta) @ d.T).take(flat)
    kw.flags.writeable = False          # cached: every grid shares it
    return kw


@functools.lru_cache(maxsize=4)
def _theta_kernel(spin: SpinQuantum) -> np.ndarray:
    """kw[p, a] = K[a, (a+p) mod n] (p = 0 .. n//2, n = 2J + 1, read from
    the upper triangle as in `_theta_frame_stack`) for K[a, b] =
    integral_0^pi sin(t) sum_m Delta_m d_am(t) d_bm(t) dt, read-only.
    Cached for four spins: an entry holds 8 (n//2 + 1) n bytes (0.16 MB at
    N = 200, 4 MB at N = 1000), and a scan cycling four spin counts hits.

    With the signed real form of `small_d_matrix`,
    d(t) = s o (R diag(cos lam t + sin lam t) R^T), the integral is
    K = s o (R B R^T), B = M o G, with the real M = R^T diag(Delta) R and
    G_kl = g(lam_k - lam_l) = g(k - l), g(d) = integral_0^pi sin(t)
    (cos dt + sin dt) dt: 2/(1 - d^2) for even d, d pi/2 for d = +-1 and
    0 otherwise.  R's columns have the reversal parity
    R[N-a, k] = (-1)^(N-k) R[a, k], and G vanishes at odd k - l but for
    |k - l| = 1, so B is built from the top t = ceil(n/2) rows of R alone,
    split into the columns E (N - k even) and O (N - k odd): its
    same-parity blocks B_EE = R_E^T diag(w) R_E o g(2(i - j)), and likewise
    B_OO, with w_a = Delta_a + Delta_{N-a} (Delta_a alone on the middle row
    of odd n, where R_O is zero), and its cross entries
    B[k+1, k] = -B[k, k+1] = (pi/2) sum_a R[a, k] (Delta_a - Delta_{N-a})
    R[a, k+1], one dot product each.  Three half-size products,
    P_E = R_E B_EE R_E^T, P_O = R_O B_OO R_O^T and X = (R_E B_EO) R_O^T,
    whose factor R_E B_EO takes two columns of R per column, give R B R^T
    by quadrants (a, b < t): P_E + P_O + X - X^T at (a, b),
    P_E - P_O + X + X^T at (N-a, b), P_E - P_O - X - X^T at (a, N-b) and
    P_E + P_O - X + X^T at (N-a, N-b), the flipped index below h = n//2 so
    that they tile K.  That is about 1.75 n^3 flops against the 6 n^3 of
    full products: 0.15 s against 0.22 s cold at N = 1000, and 2.0 s
    against 4.2 s at N = 3000, on one core of a 2-core Xeon VM.

    The quadrant array comes first, and each half-size block (2 n^2 bytes)
    is added into it and freed as soon as it is made, so no more than four
    live beside it; s and G are views of their 2n - 1 values.  A first
    build thus peaks at 24 n^2 bytes under tracemalloc when R, the quadrant
    array, the gather's index and its result are live, as `marginal_bytes`
    charges it.
    """
    _, r, signs = _jy_eigensystem(spin.two_j)
    delta = kernel_weights(spin)
    n, e0 = spin.dim, spin.two_j % 2        # column e0 is E's first
    h, t = n // 2, n - n // 2
    top, flip = r[:t], delta[::-1][:t]
    w = delta[:t] + flip
    if n % 2:
        w[-1] = delta[h]
    u = 2.0 * np.arange(1 - t, t)           # G[i, j] = g(2 (i - j))
    g = np.lib.stride_tricks.sliding_window_view(2.0 / (1.0 - u * u), t)[::-1]
    k = np.empty((n, n))
    # the quadrants (a, b), (N-a, b), (a, N-b) and (N-a, N-b), a flipped
    # index below h so that they tile K, with the ufuncs that add P_O, X
    # and X^T to each
    quadrants = ((k[:t, :t], np.add, np.add, np.subtract),
                 (k[::-1][:h, :t], np.subtract, np.add, np.add),
                 (k[:, ::-1][:t, :h], np.subtract, np.subtract, np.subtract),
                 (k[::-1, ::-1][:h, :h], np.add, np.subtract, np.add))
    r_e = top[:, e0::2].copy()
    p = (r_e.T * w) @ r_e
    p *= g
    np.matmul(r_e @ p, r_e.T, out=p)
    for quadrant, *_ in quadrants:
        rows, cols = quadrant.shape
        quadrant[...] = p[:rows, :cols]
    del r_e, p
    r_o = top[:, 1 - e0::2].copy()
    p = (r_o.T * w) @ r_o
    p *= g[:h, :h]
    p = (r_o @ p) @ r_o.T
    for quadrant, add, *_ in quadrants:
        rows, cols = quadrant.shape
        add(quadrant, p[:rows, :cols], out=quadrant)
    del p
    # R_E B_EO, whose O column l is B[l+1, l] R[:, l+1] + B[l-1, l] R[:, l-1]
    # with the cross entries B[k+1, k] = -B[k, k+1]
    cross = np.einsum("ak,a,ak->k", top[:, :-1], delta[:t] - flip, top[:, 1:])
    cross *= 0.5 * math.pi
    x = top[:, 2 - e0::2] * cross[1 - e0::2]
    x[:, e0:] -= top[:, e0:-1:2] * cross[e0::2]
    x = x @ r_o.T
    del r_o
    for quadrant, _, add, add_t in quadrants:
        rows, cols = quadrant.shape
        add(quadrant, x[:rows, :cols], out=quadrant)
        add_t(quadrant, x.T[:rows, :cols], out=quadrant)
    del x
    k *= signs
    kw = k.take(_wrapped_index(spin.dim))
    kw.flags.writeable = False          # cached: every marginal shares it
    return kw


def _spin_of(state) -> SpinQuantum:
    """The state's spin, once its arrays are checked against it: a density
    matrix (2J+1, 2J+1), a pure state's branches of one shape with 2J+1
    on the last axis."""
    if isinstance(state, DensityMatrix):
        n = state.spin.dim
        if state.entries.shape != (n, n):
            raise ValueError(f"density matrix entries have shape "
                             f"{state.entries.shape}, not {(n, n)}")
    elif isinstance(state, CoinWalkerState):
        up, down = np.shape(state.up), np.shape(state.down)
        if up != down or up[-1:] != (state.spin.dim,):
            raise ValueError(f"walker branches have shapes {up} and {down}; "
                             f"both need {state.spin.dim} on the last axis")
    else:
        raise TypeError(f"expected CoinWalkerState or DensityMatrix, "
                        f"got {type(state).__name__}")
    return state.spin


def _rho_entries(state, rows, cols) -> np.ndarray:
    """rho[rows, cols] of a density matrix, through the flat index of its
    (2J+1, 2J+1) entries (`_spin_of` checked the shape), or of a pure
    composite state as u_r conj(u_c) + d_r conj(d_c) with no (2J+1)^2
    matrix."""
    if isinstance(state, CoinWalkerState):
        return (state.up[rows] * np.conj(state.up[cols])
                + state.down[rows] * np.conj(state.down[cols]))
    return state.entries.take(rows * state.spin.dim + cols)


# cells of a block's temporaries (at least one row or step), about 256 kB:
# `_grid_harmonics` takes b rows p of the stack, b (n + ceil(n_theta/2)) of
# them, and `_site_chunk` steps make one FFT buffer of site bins
_BLOCK_CELLS = 4096


def _fft_rows(n: int, period: int) -> int:
    """Rows of a buffer that holds n harmonics in whole laps of period rows."""
    return -(-n // period) * period


def _grid_harmonics(state, kw: np.ndarray, n_theta: int,
                    n_phi: int) -> np.ndarray:
    """The harmonics g_i[q] = sum_a K_i[a, a+q] rho[a, a+q] (q = 0 .. n - 1,
    n = 2J + 1) of every grid row i, as the rows q of a zeroed
    (`_fft_rows`(n, n_phi), n_theta) buffer for `_periodic_sum`.

    The stack's wrapped diagonals kw are taken a block of p at a time; the
    mirrored row pi - theta_i takes K_i against J rho^T J, whose [a, b] is
    rho[n-1-b, n-1-a].  rho is Hermitian, so its upper entry of each index
    pair serves head and tail.  Heads (harmonic p) and tails (harmonic
    n - p) go in separate product columns, so each head sums as the
    unfolded diagonal did, and each product is the one a product of the
    whole stack would take for its p."""
    n_p, half, n = kw.shape
    buf = np.zeros((_fft_rows(n, n_phi), n_theta), complex)
    a = np.arange(n)
    size = max(1, _BLOCK_CELLS // (n + half))
    for p0 in range(0, n_p, size):
        p = np.arange(p0, min(p0 + size, n_p))
        b = (a + p[:, None]) % n
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        # [head | tail, p, a, rho | J rho^T J], each half zero in the other
        cols = np.empty((2, len(p), n, 2), complex)
        cols[..., 0] = _rho_entries(state, lo, hi)
        cols[..., 1] = _rho_entries(state, n - 1 - hi, n - 1 - lo)
        tail = (b < a)[..., None]
        np.copyto(cols[0], 0.0, where=tail)
        np.copyto(cols[1], 0.0, where=~tail)
        g = (kw[p0:p0 + len(p)] @ cols.view(float)).view(complex)
        # tails of p = 1 .. (n-1)//2 are harmonics n - p, descending
        t0, t1 = max(p0, 1), min(p0 + len(p), (n + 1) // 2)
        for rows, part in ((slice(p0, p0 + len(p)), g[0]),
                           (slice(n - t1 + 1, n - t0 + 1),
                            g[1, t0 - p0:t1 - p0][::-1])):
            buf[rows, :half] = part[..., 0]
            buf[rows, half:] = part[:, :n_theta - half, 1][:, ::-1]
    return buf


def wigner_grid(state, resolution: tuple[int, int]) -> WignerGrid:
    """Evaluate W on the product grid for one pure composite state (a step
    of a walk) or a density matrix.

    Row i is g_i[0] + 2 Re sum_q g_i[q] e^{i q phi} with the harmonics
    g_i[q] = sum_a K_i[a, a+q] rho[a, a+q] of the node's kernel K_i
    (`_grid_harmonics`), summed on the phi nodes by `_phi_node_sum`, as
    P(phi) is, so n_phi <= 2J aliases exactly.  Warns when the discretized
    normalization misses 1 by more than 1e-4 (resolution too low for this
    j); the CLI silences the warning and exits 3 on the same residual.
    """
    n_theta, n_phi = resolution
    spin = _spin_of(state)
    if isinstance(state, CoinWalkerState) and state.up.ndim != 1:
        raise ValueError("wigner_grid takes one step of a walk; index the "
                         "stacked walk (states[k])")
    if n_theta < 2:
        raise ValueError(f"n_theta must be >= 2, got {n_theta}")
    if n_phi < 1:
        raise ValueError(f"n_phi must be >= 1, got {n_phi}")

    theta, w_theta = _gauss_legendre(n_theta)
    kw = _theta_frame_stack(spin.two_j, n_theta)
    values = _phi_node_sum(_grid_harmonics(state, kw, n_theta, n_phi),
                           spin.dim, n_phi).T
    grid = WignerGrid(spin, theta, w_theta, _phi_nodes(n_phi), values, state)
    residual = abs(grid.normalization() - 1.0)
    if not residual <= 1e-4:
        warnings.warn(f"Wigner grid normalization off by {residual:.2e}; "
                      f"{_GRID_ADVICE}", stacklevel=2)
    return grid


def _site_chunk(dim: int, n_sites: int) -> int:
    """Steps per FFT buffer of `PhiDistribution.site_probabilities`."""
    return max(1, _BLOCK_CELLS // (dim + n_sites))


@dataclass(frozen=True)
class PhiDistribution:
    """Azimuthal marginal P(phi) = sum_{|q| <= 2J} p_q e^{i q phi} of one
    state, or one per step of a stack: its harmonics p_q (q = 0 .. 2J on
    the last axis; p_{-q} = conj(p_q)), from which P on the phi nodes and
    the site-binned probabilities are summed anew on every access."""

    phi_nodes: np.ndarray
    site_numbers: np.ndarray
    harmonics: np.ndarray = field(repr=False)

    def __getitem__(self, k) -> "PhiDistribution":
        """Step k of a stacked distribution."""
        return PhiDistribution(self.phi_nodes, self.site_numbers,
                               self.harmonics[k])

    @property
    def density(self) -> np.ndarray:
        """P on the phi nodes, (..., n_phi)."""
        h, n_phi = self.harmonics.T, len(self.phi_nodes)
        return _phi_node_sum(_harmonic_laps(h, n_phi), len(h), n_phi).T

    @property
    def site_probabilities(self) -> np.ndarray:
        """The probability of each site bin [phi_n - pi/L, phi_n + pi/L),
        (..., L): a bin integrates e^{iq phi} to e^{iq phi_n} (2 pi/L)
        sinc(q/L), a periodic sum over the site numbers n mod L, folded
        into FFT buffers of at most max(_BLOCK_CELLS, 2J + 1 + L) cells,
        `_site_chunk` steps at a time."""
        n_sites, dim = len(self.site_numbers), self.harmonics.shape[-1]
        bin_integrals = (2.0 * math.pi / n_sites) * np.sinc(
            np.arange(dim) / n_sites)
        terms = (self.harmonics * bin_integrals).reshape(-1, dim)
        probs = np.empty((len(terms), n_sites))
        chunk = _site_chunk(dim, n_sites)
        rows = self.site_numbers % n_sites
        for i in range(0, len(terms), chunk):
            probs[i:i + chunk] = _periodic_sum(
                _harmonic_laps(terms[i:i + chunk].T, n_sites), n_sites)[rows].T
        return probs.reshape(*self.harmonics.shape[:-1], n_sites)

    @property
    def total(self):
        """Integral of P over [-pi, pi): 2 pi Re p_0, one per step."""
        return 2.0 * math.pi * self.harmonics[..., 0].real


def _harmonic_laps(h: np.ndarray, period: int) -> np.ndarray:
    """A zeroed buffer of whole laps of period rows (`_fft_rows`) for
    `_periodic_sum`, holding the harmonics h along its first axis."""
    folded = np.zeros((_fft_rows(len(h), period), *h.shape[1:]), complex)
    folded[:len(h)] = h
    return folded


def _periodic_sum(folded: np.ndarray, period: int) -> np.ndarray:
    """h_0 + 2 Re sum_{q>=1} h_q e^{2 pi i q k / period} at k = 0 ..
    period - 1, for harmonics h_q in the rows of `folded`, a complex buffer
    of whole laps of period rows, zero past the last harmonic (only Re h_0
    counts).  Row 0 is halved in place and the laps are added in order,
    which folds the harmonics modulo the period (exact aliasing), into one
    period that one inverse FFT sums in place."""
    folded[0] *= 0.5
    if len(folded) > period:
        folded = folded.reshape(-1, period, *folded.shape[1:]).sum(axis=0)
    return 2.0 * np.fft.ifft(folded, axis=0, norm="forward", out=folded).real


def _phi_node_sum(folded: np.ndarray, n: int, n_phi: int) -> np.ndarray:
    """h_0 + 2 Re sum_{q>=1} h_q e^{i q phi} on the n_phi uniform nodes, for
    n harmonics h_q in the rows of `folded`, a zeroed buffer of whole laps
    of n_phi rows (`_grid_harmonics`, `_harmonic_laps`), summed in place."""
    # node j sits at -pi + 2 pi j / n_phi, and e^{-i q pi} = (-1)^q; the
    # rows past the harmonics stay +0.0
    folded[1:n:2] *= -1.0
    return _periodic_sum(folded, n_phi)


def marginal_phi(source, indexing: SiteIndexing,
                 n_phi: int | None = None) -> PhiDistribution:
    """Exact P(phi) = (2J+1)/(4 pi) * integral of W sin(theta) d(theta) of a
    state (pure composite or density matrix) on n_phi uniform nodes, or of
    the state a WignerGrid was built from on the grid's phi nodes (n_phi
    then must be omitted), plus the probability of each site bin
    [phi_n - pi/L, phi_n + pi/L); for every step at once when a pure
    state's amplitudes carry a leading step axis.

    p_q = (2J+1)/(4 pi) * sum_a K[a, a+q] rho[a, a+q] (K: `_theta_kernel`),
    one diagonal q at a time: a density matrix's own, or a pure state's
    u_a conj(u_{a+q}) + d_a conj(d_{a+q}), with no (2J+1)^2 matrix.
    """
    if isinstance(source, WignerGrid):
        if n_phi is not None:
            raise ValueError("n_phi must be omitted for a grid, whose phi "
                             "nodes are fixed")
        source, n_phi = source.state, len(source.phi_nodes)
    elif n_phi is None:
        raise ValueError("n_phi is required unless the source is a grid")
    if n_phi < 1:
        raise ValueError(f"n_phi must be >= 1, got {n_phi}")
    spin = _spin_of(source)
    kw, n = _theta_kernel(spin), spin.dim
    pure = isinstance(source, CoinWalkerState)
    g = np.empty(source.up.shape if pure else n, complex)
    for q in range(n):
        k = kw[q, :n - q] if 2 * q <= n else kw[n - q, q:]
        if pure:
            # vecdot conjugates its first argument
            g[..., q] = sum(np.vecdot(u[..., q:], k * u[..., :n - q])
                            for u in (source.up, source.down))
        else:
            g[q] = k @ np.diagonal(source.entries, q)
    g *= spin.dim / (4.0 * math.pi)
    return PhiDistribution(_phi_nodes(n_phi), indexing.site_numbers, g)


def sigma_from_marginal(dist: PhiDistribution):
    """sqrt(<phi^2> - <phi>^2) of P on phi in [-pi, pi), one per step, in
    closed form: over that interval e^{iq phi} integrates against phi to
    -2 pi i (-1)^q / q and against phi^2 to 4 pi (-1)^q / q^2.  A total
    more than 1e-4 from 1 raises ValueError naming its step."""
    total = dist.total
    _unit_totals(total, 1e-4, "marginal integrates to")
    p = dist.harmonics
    q = np.arange(1, p.shape[-1])
    alt = np.where(q % 2, -1.0, 1.0)
    mean = 4.0 * math.pi * np.vecdot(p[..., 1:].imag, alt / q) / total
    second = (2.0 * math.pi ** 3 / 3.0 * p[..., 0].real
              + 8.0 * math.pi * np.vecdot(p[..., 1:].real, alt / (q * q))
              ) / total
    return np.sqrt(np.maximum(0.0, second - mean * mean))


# in a fresh process, a first `_theta_kernel` build raises the peak RSS over
# a bare import by 0.7-3.2 n^2 bytes more than the 24 n^2 it holds at
# N = 3000-800, and by 9.7 n^2 more at N = 400, where the BLAS's first use,
# which the resident floor covers, is most of it: the BLAS's share,
# 3 n^2 + 2000 n
_K_BLAS_SQUARE, _K_BLAS_LINEAR = 3, 2000


def _sum_bytes(n: int, period: int, columns: int = 1) -> int:
    """A periodic sum of n harmonics in `columns` columns: its buffer, one
    period more, and numpy's FFT plan and scratch, which tracemalloc does
    not see (a ru_maxrss rise of 32-34 bytes a point from 1e5 points up)."""
    return 16 * columns * (_fft_rows(n, period) + period) + 32 * period


def grid_bytes(two_j: int, n_theta: int, n_phi: int) -> int:
    """A `wigner_grid` call's cached kernel stack and its sum of rows."""
    return (8 * math.prod(_stack_shape(two_j, n_theta))
            + _sum_bytes(two_j + 1, n_phi, n_theta))


def marginal_bytes(two_j: int, steps: int, n_phi: int, sites: int,
                   bins: bool) -> int:
    """`marginal_phi` of steps + 1 steps: the first `_theta_kernel` build,
    the harmonics and one product of their shape, and one step's P(phi)
    and site bins; with bins, every step's site table and one chunk."""
    n, rows = two_j + 1, steps + 1
    chunk = _sum_bytes(n, sites, min(rows, _site_chunk(n, sites)))
    return ((24 + _K_BLAS_SQUARE) * n * n + _K_BLAS_LINEAR * n
            + 32 * (rows + 1) * n + _sum_bytes(n, n_phi) + _sum_bytes(n, sites)
            + bins * (8 * rows * sites + chunk))
