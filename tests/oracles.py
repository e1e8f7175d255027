"""Independent oracles used by the tests.

Everything here is built from first principles (ladder operators, closed
forms for low-rank couplings, the Racah sum, pointwise kernel traces,
ordinary least squares, the analytic coherent-state overlap, the
total-variation distance) without touching the implementation paths under
test.  The per-step walk is the reference for the stacked `evolve`, and the
closed-form walk references take their site states from `site_state` and
check the evolution.  The amplitude-based grid evaluator (one d-matrix per
theta node, rho split into weighted vectors) is the reference for
`wigner_grid`, the unfolded diagonal-major product the reference for the
grid harmonics from the folded kernel stack, the whole-stack product the
bit-for-bit reference for the grid's block-wise product, the
diagonal-major table the reference for the theta kernel's wrapped
diagonals, the complex J_y eigendecomposition `small_d_by_jy` the
reference for the real `small_d_matrix`, and the dense J_x `eigh` the
reference for the recursion that builds its eigensystem.  The theta
Gauss-Legendre kernel and the grid-quadrature marginal are the references
for the exact marginal, and 60-digit Newton iteration in `decimal` the
reference for the Gauss-Legendre rule in cos theta; the per-cell Wigner
CSV and SVG writers and the per-node site binning last
in the file are the byte-for-byte references for the vectorized emitters
and the grid marginal's binning.  The roots-of-unity gather at the end is
the reference for the FFT periodic sums on the phi nodes and the site bins.
"""

import math
from dataclasses import dataclass
from decimal import Decimal, getcontext, localcontext
from pathlib import Path

import numpy as np

from blochwalk import (CoinWalkerState, DensityMatrix, NumericalInvariantError,
                       SiteIndexing, SpinQuantum, coin_unitary, kernel_weights,
                       rz_phases, site_state, small_d_matrix)


def _check_jm(two_j: int, two_m: int, name: str) -> None:
    if two_j < 0:
        raise ValueError(f"{name}: negative angular momentum two_j={two_j}")
    if abs(two_m) > two_j:
        raise ValueError(f"{name}: |m| > j (two_m={two_m}, two_j={two_j})")
    if (two_j + two_m) % 2:
        raise ValueError(f"{name}: j and m differ by a non-integer "
                         f"(two_j={two_j}, two_m={two_m})")


# ln(n!) of an integer or integer array, from the C library's lgamma
_lnfact = np.vectorize(lambda n: math.lgamma(n + 1.0), otypes=[float])


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


def small_d_by_jy(spin: SpinQuantum, beta: float) -> np.ndarray:
    """d^j(beta) = V e^{-i beta lam} V^+ from the complex eigensystem of J_y
    (eigenvalues snapped to the m grid), without the J_x similarity and the
    quarter-turn signs of `small_d_matrix`."""
    _, jy, _ = angular_momentum_matrices(spin.two_j)
    lam, v = np.linalg.eigh(jy)
    lam = np.round(2.0 * lam) / 2.0
    return ((v * np.exp(-1j * beta * lam)) @ v.conj().T).real


def jx_eigensystem_by_eigh(two_j: int):
    """(lam, R) of the real tridiagonal J_x in the Dicke basis from LAPACK's
    dense symmetric eigensolver, eigenvalues ascending: the reference for
    `_jy_eigensystem`'s three-term recursion (columns agree up to sign)."""
    dim = two_j + 1
    j = two_j / 2.0
    m = (two_j - 2.0 * np.arange(dim)) / 2.0
    half_raise = np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0)) / 2.0
    return np.linalg.eigh(np.diag(half_raise, 1) + np.diag(half_raise, -1))


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


def cg_coefficient(two_j1: int, two_m1: int, two_j2: int, two_m2: int,
                   two_J: int, two_M: int) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M>, Condon-Shortley sign.

    Racah sum with all factorials in the log domain and compensated
    summation of the signed terms.  Returns 0 when M != m1 + m2 or the
    triangle inequality fails; raises on invalid quantum numbers.
    """
    _check_jm(two_j1, two_m1, "j1/m1")
    _check_jm(two_j2, two_m2, "j2/m2")
    _check_jm(two_J, two_M, "J/M")
    if two_M != two_m1 + two_m2:
        return 0.0
    if two_J > two_j1 + two_j2 or two_J < abs(two_j1 - two_j2):
        return 0.0
    if (two_j1 + two_j2 + two_J) % 2:
        return 0.0

    a = (two_j1 + two_j2 - two_J) // 2
    b = (two_j1 - two_j2 + two_J) // 2
    c = (-two_j1 + two_j2 + two_J) // 2
    per = (two_j1 + two_j2 + two_J) // 2 + 1
    log_pre = 0.5 * (
        math.log(two_J + 1.0)
        + _lnfact(a) + _lnfact(b) + _lnfact(c) - _lnfact(per)
        + _lnfact((two_J + two_M) // 2) + _lnfact((two_J - two_M) // 2)
        + _lnfact((two_j1 - two_m1) // 2) + _lnfact((two_j1 + two_m1) // 2)
        + _lnfact((two_j2 - two_m2) // 2) + _lnfact((two_j2 + two_m2) // 2)
    )

    k_min = max(0, (two_j2 - two_J - two_m1) // 2, (two_j1 + two_m2 - two_J) // 2)
    k_max = min(a, (two_j1 - two_m1) // 2, (two_j2 + two_m2) // 2)
    if k_max < k_min:
        return 0.0
    k = np.arange(k_min, k_max + 1)
    log_den = (
        _lnfact(k) + _lnfact(a - k)
        + _lnfact((two_j1 - two_m1) // 2 - k)
        + _lnfact((two_j2 + two_m2) // 2 - k)
        + _lnfact((two_J - two_j2 + two_m1) // 2 + k)
        + _lnfact((two_J - two_j1 - two_m2) // 2 + k)
    )
    logs = log_pre - log_den
    peak = logs.max()
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    total = math.fsum(signs * np.exp(logs - peak))
    return total * math.exp(peak)


def rotated_dicke_frame(spin: SpinQuantum, theta: float, phi: float) -> np.ndarray:
    """Unitary whose column m is the rotated Dicke state |j,m;d> with
    d = (sin t cos p, sin t sin p, cos t): U = diag(e^{-i phi m}) d^j(theta).
    """
    return rz_phases(spin, phi)[:, None] * small_d_matrix(spin, theta)


def wigner_at(rho: DensityMatrix, theta: float, phi: float,
              weights: np.ndarray) -> float:
    """W(theta, phi) = sum_m Delta_{j,m} <j,m;d| rho |j,m;d>, one point at a
    time from the rotated Dicke frame."""
    if weights.shape != (rho.spin.dim,):
        raise ValueError("density matrix and kernel weights disagree on j")
    frame = rotated_dicke_frame(rho.spin, theta, phi)
    diag = np.einsum("im,ik,km->m", frame.conj(), rho.entries, frame)
    residue = np.abs(diag.imag).max()
    if not residue <= 1e-8:
        raise NumericalInvariantError(
            f"kernel trace has imaginary residue {residue:.2e}; "
            "the density matrix is likely not Hermitian")
    return float(weights @ diag.real)


def wigner_grid_by_vectors(state, resolution) -> np.ndarray:
    """W on the `wigner_grid` nodes from amplitudes: rho = sum_r c_r v_r v_r^+
    (the up/down components of a pure composite state, or the eigenvectors
    of a density matrix with negligible eigenvalues dropped), and
    W = sum_m Delta_m sum_r c_r |<j,m;d(theta,phi)|v_r>|^2 with one d-matrix
    per theta node and phi entering through diagonal phases."""
    spin = state.spin
    if isinstance(state, CoinWalkerState):
        vecs = np.stack([state.up, state.down], axis=1)
        coefs = np.array([1.0, 1.0])
    else:
        evals, evecs = np.linalg.eigh(state.entries)
        keep = np.abs(evals) > 1e-13
        vecs, coefs = evecs[:, keep], evals[keep]
    n_theta, n_phi = resolution
    x, _ = np.polynomial.legendre.leggauss(n_theta)
    phi = -math.pi + 2.0 * math.pi * np.arange(n_phi) / n_phi
    weights = kernel_weights(spin)
    # <j,m;d(theta,phi)|v> = sum_m' d_{m',m}(theta) e^{i phi m'} v_{m'}
    phases = np.exp(1j * np.outer(spin.m_values, phi))      # (dim, n_phi)
    mod = phases[:, None, :] * vecs[:, :, None]             # (dim, r, n_phi)
    values = np.empty((n_theta, n_phi))
    for i, t in enumerate(np.arccos(x[::-1])):
        amps = np.einsum("ab,arp->brp", small_d_matrix(spin, float(t)), mod)
        values[i] = weights @ (np.abs(amps) ** 2 * coefs[None, :, None]) \
            .sum(axis=1)
    return values


def grid_harmonics_unfolded(rho: DensityMatrix, theta) -> np.ndarray:
    """The harmonics g_i[q] = sum_a K_i[a, a+q] rho[a, a+q] of every grid
    row, (2J+1, n_theta), on the n_theta nodes `theta` (ascending, mirrored
    about pi/2), from the unfolded diagonal-major product: one real batched
    product of the upper diagonals kd[q, i, a] = K_i[a, a+q] (zero past the
    end) of the kernels of the nodes theta_i <= pi/2 with the diagonals of
    rho and of J rho^T J, which the mirrored row pi - theta_i takes."""
    spin, n = rho.spin, rho.spin.dim
    n_theta = len(theta)
    half = (n_theta + 1) // 2
    delta = kernel_weights(spin)
    kd = np.zeros((n, half, n))
    for i, t in enumerate(theta[:half]):
        d = small_d_matrix(spin, float(t))
        k = (d * delta) @ d.T
        for q in range(n):
            kd[q, i, :n - q] = np.diagonal(k, q)
    cols = np.zeros((n, n, 2), complex)
    for c, m in enumerate((rho.entries, rho.entries[::-1, ::-1].T)):
        for q in range(n):
            cols[q, :n - q, c] = np.diagonal(m, q)
    g = (kd @ cols.view(float)).view(complex)
    return np.concatenate((g[:, :, 0], g[:, :n_theta - half, 1][:, ::-1]),
                          axis=1)


def grid_harmonics_whole_stack(state, kw: np.ndarray,
                               n_theta: int) -> np.ndarray:
    """The harmonics of every grid row, (2J+1, n_theta), from one batched
    real product of the whole stack of wrapped diagonals kw with the heads
    and, apart, the tails of rho and J rho^T J on the index pairs
    (a, (a+p) mod n), and then the harmonics array of the whole grid, as
    the grid's product was taken before it ran a block of p at a time; the
    block-wise path into the FFT buffer is checked against it bit for
    bit."""
    n = kw.shape[-1]
    a = np.arange(n)
    b = (a + np.arange(n // 2 + 1)[:, None]) % n
    lo, hi = np.minimum(a, b), np.maximum(a, b)

    def entries(rows, cols):
        if isinstance(state, CoinWalkerState):
            return (state.up[rows] * np.conj(state.up[cols])
                    + state.down[rows] * np.conj(state.down[cols]))
        return state.entries.take(rows * n + cols)

    cols = np.empty((2, len(lo), n, 2), complex)
    cols[..., 0] = entries(lo, hi)
    cols[..., 1] = entries(n - 1 - hi, n - 1 - lo)
    tail = (lo < a)[..., None]
    np.copyto(cols[0], 0.0, where=tail)
    np.copyto(cols[1], 0.0, where=~tail)
    g = (kw @ cols.view(float)).view(complex)     # (half, p, node, 2)
    g = np.concatenate((g[0], g[1, (n - 1) // 2:0:-1]))
    mirrored = g[:, :n_theta - kw.shape[1], 1]
    return np.concatenate((g[:, :, 0], mirrored[:, ::-1]), axis=1)


def upper_diagonals(a: np.ndarray) -> np.ndarray:
    """The diagonal-major table d[q, i] = a[i, i+q], q = 0 .. n-1, zero
    where i + q >= n, against which the theta kernel's wrapped diagonals
    are checked bit for bit.  With the rows of a laid end to end in rows
    of n+1, a[i, i+q] falls in column q; triu clears the entries that
    would wrap in from the lower triangle."""
    n = a.shape[-1]
    flat = np.concatenate((np.triu(a).reshape(n * n), np.zeros(n, a.dtype)))
    return flat.reshape(n, n + 1)[:, :n].T


def validate_density_matrix(rho: DensityMatrix) -> None:
    """Raise ValueError unless rho is Hermitian, unit trace and positive
    semidefinite (each check fails on NaN)."""
    entries = rho.entries
    h_err = np.abs(entries - entries.conj().T).max()
    if not h_err <= 1e-12:
        raise ValueError(f"density matrix not Hermitian ({h_err:.2e})")
    tr_err = abs(entries.trace() - 1.0)
    if not tr_err <= 1e-10:
        raise ValueError(f"density matrix trace off by {tr_err:.2e}")
    lo = np.linalg.eigvalsh(entries).min()
    if not lo >= -1e-10:
        raise ValueError(f"density matrix has eigenvalue {lo:.2e}")


def overlap_modulus(spin: SpinQuantum, theta1: float, phi1: float,
                    theta2: float, phi2: float) -> float:
    """|<theta1,phi1|theta2,phi2>| = cos^{2J}(Theta/2) with Theta the angle
    between the two Bloch directions."""
    cos_big = (math.cos(theta1) * math.cos(theta2)
               + math.sin(theta1) * math.sin(theta2) * math.cos(phi1 - phi2))
    half = (1.0 + min(1.0, max(-1.0, cos_big))) / 2.0   # cos^2(Theta/2)
    if half <= 0.0:
        return 0.0
    if half >= 1.0:
        return 1.0
    return math.exp((spin.two_j / 2.0) * math.log(half))


def tv_distance(p, q) -> float:
    """Total-variation distance: half the L1 distance between distributions."""
    return 0.5 * float(np.abs(np.asarray(p, float) - np.asarray(q, float)).sum())


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
# The walk one period at a time, and closed-form references for the first
# two Hadamard steps
# ---------------------------------------------------------------------------

def evolve_per_step(initial: CoinWalkerState, pulse,
                    schedule) -> list[CoinWalkerState]:
    """The states after 0 .. schedule.steps periods, one new state a
    period: the coin flip mixes the two branches, then R_z(+kappa T) turns
    the up branch and R_z(-kappa T) the down branch."""
    u = coin_unitary(pulse)
    states = [initial]
    for _ in range(schedule.steps):
        s = states[-1]
        fwd = rz_phases(s.spin, schedule.kappa_T)
        states.append(CoinWalkerState(
            s.spin, fwd * (u[0, 0] * s.up + u[0, 1] * s.down),
            fwd.conj() * (u[1, 0] * s.up + u[1, 1] * s.down)))
    return states


def aligned_site_state(indexing: SiteIndexing, spin: SpinQuantum,
                       n: int) -> np.ndarray:
    """Site state in the rotation-aligned gauge R_z(n dphi)|phi_0>.

    Differs from site_state by the global phase e^{-i J n dphi}; this is the
    gauge in which the conditional shift maps site n to site n+1 with no
    extra phase, and in which the two-step closed form below holds exactly.
    """
    base = site_state(indexing, spin, n)
    phase = np.exp(-1j * (spin.two_j / 2.0) * n * indexing.delta_phi)
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


# ---------------------------------------------------------------------------
# Per-cell references for the Wigner CSV and SVG emitters
# ---------------------------------------------------------------------------

# diverging blue -> white -> red anchors (negative, zero, positive)
_NEG = (33, 102, 172)
_MID = (247, 247, 247)
_POS = (178, 24, 43)


def _lerp(a, b, t: float) -> tuple[int, int, int]:
    return tuple(int(round(a[i] + (b[i] - a[i]) * t)) for i in range(3))


def _color(value: float, vmax: float) -> str:
    if vmax <= 0.0:
        r, g, b = _MID
    else:
        t = max(-1.0, min(1.0, value / vmax))
        if t >= 0.0:
            r, g, b = _lerp(_MID, _POS, t)
        else:
            r, g, b = _lerp(_MID, _NEG, -t)
    return f"#{r:02x}{g:02x}{b:02x}"


def render_heatmap_svg_per_cell(grid, path, indexing: SiteIndexing) -> None:
    """The heatmap SVG built one cell at a time, colour by `_color`."""
    width, height = 720, 400
    margin_l, margin_r, margin_t, margin_b = 50, 20, 16, 36
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    n_theta = len(grid.theta_nodes)
    n_phi = len(grid.phi_nodes)
    vmax = float(np.abs(grid.values).max())

    # cell edges: uniform in phi; theta cells split midway between nodes
    theta_edges = np.empty(n_theta + 1)
    theta_edges[0] = 0.0
    theta_edges[-1] = math.pi
    theta_edges[1:-1] = 0.5 * (grid.theta_nodes[:-1] + grid.theta_nodes[1:])

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">')
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')

    dx = plot_w / n_phi
    for i in range(n_theta):
        y0 = margin_t + plot_h * theta_edges[i] / math.pi
        y1 = margin_t + plot_h * theta_edges[i + 1] / math.pi
        row = grid.values[i]
        for k in range(n_phi):
            x0 = margin_l + k * dx
            out.append(
                f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{dx + 0.05:.2f}" '
                f'height="{y1 - y0 + 0.05:.2f}" fill="{_color(row[k], vmax)}"/>')

    # frame and axis labels
    out.append(
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black" stroke-width="1"/>')
    out.append(
        f'<text x="{margin_l + plot_w / 2:.1f}" y="{height - 6}" '
        f'font-size="13" text-anchor="middle">phi (rad)</text>')
    out.append(
        f'<text x="14" y="{margin_t + plot_h / 2:.1f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 14 '
        f'{margin_t + plot_h / 2:.1f})">theta (rad)</text>')

    for n in indexing.site_numbers:
        if 2 * n >= indexing.sites:         # outside [-pi, pi)
            continue
        phi_n = n * indexing.delta_phi
        x = margin_l + plot_w * (phi_n + math.pi) / (2.0 * math.pi)
        y = margin_t + plot_h
        out.append(
            f'<line x1="{x:.2f}" y1="{y}" x2="{x:.2f}" y2="{y + 5}" '
            f'stroke="black" stroke-width="1"/>')
        out.append(
            f'<text x="{x:.2f}" y="{y + 17}" font-size="10" '
            f'text-anchor="middle">{int(n)}</text>')

    out.append(
        f'<text x="{margin_l}" y="{margin_t - 4}" font-size="11">'
        f'W range +/- {vmax:.6e}</text>')
    out.append("</svg>")

    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def write_wigner_csv_per_field(grid, path) -> None:
    """The Wigner CSV built one `%.12e` field at a time."""
    lines = ["theta,phi,weight_theta,W"]
    for i, (t, w) in enumerate(zip(grid.theta_nodes, grid.theta_weights)):
        row = grid.values[i]
        for p, val in zip(grid.phi_nodes, row):
            lines.append(",".join("%.12e" % x for x in (t, p, w, val)))
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def write_sites_csv_per_field(per_step, indexing: SiteIndexing, path,
                              header="k,site_index,phi,site_prob") -> None:
    """The sites (or ideal) CSV built one `%.12e` field at a time."""
    lines = [header]
    for k, probs in per_step:
        for n, pr in zip(indexing.site_numbers, probs):
            lines.append(",".join((str(k), str(int(n)),
                                   "%.12e" % (n * indexing.delta_phi),
                                   "%.12e" % pr)))
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def write_sigma_csv_per_field(rows, path) -> None:
    """The sigma CSV built one `%.12e` field at a time."""
    lines = ["k,sigma_coherent,sigma_ideal"]
    for k, sc, si in rows:
        lines.append(",".join((str(k), "%.12e" % sc, "%.12e" % si)))
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


# ---------------------------------------------------------------------------
# Quadrature references for the exact marginal
# ---------------------------------------------------------------------------

def theta_kernel_gl(spin: SpinQuantum, n_nodes: int | None = None):
    """K[a, b] = integral_0^pi sin(t) sum_m Delta_m d_am(t) d_bm(t) dt by
    Gauss-Legendre in theta itself (not in cos theta) from `small_d_matrix`.

    The integrand is a trigonometric polynomial of degree 2J + 1, so the
    rule converges geometrically; max(2N + 4, 64) nodes by default, since
    2N + 4 alone is still off by 8e-7 at 2J = 1.
    """
    if n_nodes is None:
        n_nodes = max(2 * spin.two_j + 4, 64)
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    theta = 0.5 * math.pi * (x + 1.0)
    w = 0.5 * math.pi * w
    delta = kernel_weights(spin)
    kernel = np.zeros((spin.dim, spin.dim))
    for t, wt in zip(theta, w):
        d = small_d_matrix(spin, float(t))
        kernel += (wt * math.sin(t)) * ((d * delta) @ d.T)
    return kernel


@dataclass(frozen=True)
class GridMarginal:
    """The azimuthal marginal of a Wigner grid, node by node."""

    phi_nodes: np.ndarray
    density: np.ndarray
    site_numbers: np.ndarray
    site_probabilities: np.ndarray

    @property
    def phi_spacing(self) -> float:
        return 2.0 * math.pi / len(self.phi_nodes)


# pi to 64 digits, for the mirrored nodes pi - theta
DECIMAL_PI = Decimal(
    "3.141592653589793238462643383279502884197169399375105820974944592")


def _decimal_cos_sin(t: Decimal):
    """cos t and sin t by their Taylor series, to the context's precision,
    for 0 <= t <= pi/2."""
    cos, sin, term_c, term_s = Decimal(0), Decimal(0), Decimal(1), t
    tiny = Decimal(10) ** -(getcontext().prec + 2)
    k = 0
    while abs(term_c) > tiny or abs(term_s) > tiny:
        cos, sin = cos + term_c, sin + term_s
        term_c *= -t * t / ((2 * k + 1) * (2 * k + 2))
        term_s *= -t * t / ((2 * k + 2) * (2 * k + 3))
        k += 1
    return cos, sin


def gauss_legendre_node_by_decimal(n: int, theta: float):
    """(theta_k, w_k) of the n-node Gauss-Legendre rule in cos theta at 60
    significant digits, for the node theta_k <= pi/2 nearest `theta`:
    Newton iteration in theta on P_n(cos theta), through the plain
    three-term recurrence in x = cos theta, which loses no more than a few
    of the 60 digits near the poles, and w = 2 sin^2 theta /
    (n (P_{n-1} - x P_n))^2.  Three steps from a double-precision start
    pass 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        t = Decimal(theta)
        for newton_step in range(4):
            x, sin = _decimal_cos_sin(t)
            prev, p = Decimal(1), x             # P_0, P_1
            for k in range(1, n):
                prev, p = p, ((2 * k + 1) * x * p - k * prev) / (k + 1)
            dp = n * (prev - x * p)             # n (P_{n-1} - x P_n)
            if newton_step < 3:
                t += sin * p / dp
        return +t, +(2 * sin * sin / (dp * dp))


def nearest_site(indexing: SiteIndexing, phi):
    """Unwrapped nearest site number of each angle, and the angle's offset
    from that site center in units of delta_phi.  Ties round to even, as
    round() does."""
    u = np.asarray(phi) / indexing.delta_phi
    n = np.rint(u)
    return n.astype(int), u - n


def grid_marginal(grid, indexing: SiteIndexing) -> GridMarginal:
    """P(phi) as the cos-theta Gauss-Legendre sum of the grid, and the site
    bins as the rectangle rule over the phi nodes: a node on a bin edge
    gives half its mass to each of the two bins, every other node all of it
    to its nearest site (vectorized with one bincount over interleaved
    (nearest, other) pairs, so each bin sums in node order)."""
    density = ((grid.spin.two_j + 1) / (4.0 * math.pi)
               * grid.theta_weights @ grid.values)
    sites = indexing.site_numbers
    nearest, frac = nearest_site(indexing, grid.phi_nodes)
    edge = np.abs(np.abs(frac) - 0.5) < 1e-9
    other = nearest + np.where(frac > 0, 1, -1)
    mass = density * grid.phi_spacing
    half = 0.5 * density * grid.phi_spacing
    bins = indexing.wrap(np.stack([nearest, other], axis=1)) - sites[0]
    masses = np.stack([np.where(edge, half, mass),
                       np.where(edge, half, 0.0)], axis=1)
    site_prob = np.bincount(bins.ravel(), masses.ravel(), len(sites))
    return GridMarginal(grid.phi_nodes, density, sites, site_prob)


def grid_sigma(dist: GridMarginal) -> float:
    """sqrt(<phi^2> - <phi>^2) of the density by the rectangle rule."""
    d, phi, width = dist.density, dist.phi_nodes, dist.phi_spacing
    total = float(d.sum()) * width
    mean = float(d @ phi) * width / total
    second = float(d @ (phi * phi)) * width / total
    return math.sqrt(max(0.0, second - mean * mean))


# ---------------------------------------------------------------------------
# Node-by-node references for the site binning
# ---------------------------------------------------------------------------

def marginal_phi_per_node(grid, indexing: SiteIndexing) -> GridMarginal:
    """The grid marginal with each phi node binned on its own: a node on a
    bin edge adds half its mass to each neighbouring bin, nearest first."""
    density = ((grid.spin.two_j + 1) / (4.0 * math.pi)
               * grid.theta_weights @ grid.values)
    sites = indexing.site_numbers
    dphi = indexing.delta_phi
    width = grid.phi_spacing
    site_prob = np.zeros(len(sites))
    offset = int(sites[0])
    for p, rho in zip(grid.phi_nodes, density):
        u = p / dphi
        nearest = round(u)
        frac = u - nearest
        if abs(abs(frac) - 0.5) < 1e-9:
            other = indexing.wrap(nearest + (1 if frac > 0 else -1))
            site_prob[indexing.wrap(nearest) - offset] += 0.5 * rho * width
            site_prob[other - offset] += 0.5 * rho * width
        else:
            site_prob[indexing.wrap(nearest) - offset] += rho * width
    return GridMarginal(grid.phi_nodes, density, sites, site_prob)


def write_marginal_csv_per_row(dist, indexing: SiteIndexing, path) -> None:
    """The marginal CSV with each row's bin-center test done on its own."""
    lines = ["phi,P,site_index,site_prob"]
    dphi = indexing.delta_phi
    offset = int(dist.site_numbers[0])
    for p, rho in zip(dist.phi_nodes, dist.density):
        u = p / dphi
        n = round(u)
        fields = ["%.12e" % p, "%.12e" % rho, "", ""]
        if abs(u - n) < 1e-9:           # bin-center row
            n = indexing.wrap(n)
            fields[2:] = str(n), "%.12e" % dist.site_probabilities[n - offset]
        lines.append(",".join(fields))
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


# ---------------------------------------------------------------------------
# Gathered roots-of-unity references for the periodic sums
# ---------------------------------------------------------------------------

def root_sum_by_gather(k, period: int, terms: np.ndarray) -> np.ndarray:
    """2 Re sum_{q>=1} terms_q e^{2 pi i q k / period} at each integer k,
    gathered from one table of the period's roots of unity; q runs along
    the first axis of `terms`."""
    q = np.arange(1, len(terms) + 1)
    roots = np.exp(2j * math.pi * np.arange(period) / period)
    return 2.0 * (roots[np.outer(k, q) % period] @ terms).real


def phi_node_sum_by_gather(h: np.ndarray, n_phi: int) -> np.ndarray:
    """h_0 + 2 Re sum_{q>=1} h_q e^{i q phi} on the n_phi uniform nodes
    phi_j = -pi + 2 pi j / n_phi, for harmonics h_q along the first axis."""
    q = np.arange(1, len(h))
    alt = np.where(q % 2, -1.0, 1.0)        # e^{-i q pi}
    return h[0].real + root_sum_by_gather(np.arange(n_phi), n_phi,
                                          (h[1:].T * alt).T)


def site_bins_by_gather(p: np.ndarray, indexing: SiteIndexing) -> np.ndarray:
    """The probability of each site bin [phi_n - pi/L, phi_n + pi/L) of
    P(phi) = sum_{|q| <= 2J} p_q e^{i q phi}: the bin integrates
    e^{i q phi} to e^{i q phi_n} 2 sin(q pi/L)/q."""
    q = np.arange(1, len(p))
    half = math.pi / indexing.sites
    return 2.0 * half * p[0].real + root_sum_by_gather(
        indexing.site_numbers, indexing.sites,
        p[1:] * 2.0 * np.sin(q * half) / q)
