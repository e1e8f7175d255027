"""End-to-end acceptance checks for the coherent-state walk simulator.

Each test prints a single [PASS]/[FAIL] line with the measured figure so a
plain `pytest -v -s tests/test_acceptance.py` doubles as a results table.
"""

import json
import math
import time

import numpy as np
import pytest

from blochwalk import (CoinPulse, SiteIndexing, SpinQuantum, WalkSchedule,
                       coherent_state, evolve, ideal_sigma, ideal_walk,
                       initial_state, kernel_weights, marginal_phi,
                       reduce_walker, sigma_from_marginal, site_state,
                       wigner_grid)
from blochwalk.cli import main
from oracles import (linear_fit_r2, overlap_modulus, step1_reference,
                     step2_reference, tv_distance)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {name} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def ballistic_run():
    """L = 40 ring, 200 spins, 9 Hadamard steps: grids, site bins, spreads."""
    start = time.monotonic()
    idx = SiteIndexing(40)
    spin = SpinQuantum(200)
    sched = WalkSchedule.site_aligned(idx, 9)
    states = evolve(initial_state(idx, spin), CoinPulse.hadamard(), sched)
    ideal = ideal_walk(40, 9, HADAMARD)

    residuals, sigma_c, sigma_i, site_probs = [], [], [], []
    for k, state in enumerate(states):
        grid = wigner_grid(state, (202, 320))
        residuals.append(abs(grid.normalization() - 1.0))
        dist = marginal_phi(grid, idx)
        sigma_c.append(sigma_from_marginal(dist))
        sigma_i.append(ideal_sigma(ideal[k], idx))
        site_probs.append(dist.site_probabilities)
    return {
        "indexing": idx,
        "residuals": residuals,
        "sigma_coherent": sigma_c,
        "sigma_ideal": sigma_i,
        "site_probs": site_probs,
        "ideal": ideal,
        "elapsed": time.monotonic() - start,
    }


def test_criterion_1_overlap_equivalence():
    start = time.monotonic()
    worst = 0.0
    for two_j in (1, 10, 50, 200):
        spin = SpinQuantum(two_j)
        rng = np.random.default_rng(1000 + two_j)
        for _ in range(100):
            t1, t2 = rng.uniform(0.0, math.pi, 2)
            p1, p2 = rng.uniform(-math.pi, math.pi, 2)
            numeric = abs(np.vdot(coherent_state(spin, t1, p1),
                                  coherent_state(spin, t2, p2)))
            analytic = overlap_modulus(spin, t1, p1, t2, p2)
            worst = max(worst, abs(numeric - analytic))
    elapsed = time.monotonic() - start
    _report(1, "overlap equivalence", worst < 1e-10 and elapsed < 5.0,
            f"max |analytic - numeric| = {worst:.2e} over 400 random pairs, "
            f"{elapsed:.2f} s")


def test_criterion_2_equator_overlap():
    start = time.monotonic()
    worst = 0.0
    for sites in (6, 40):
        idx = SiteIndexing(sites)
        spin = SpinQuantum(100)
        states = {n: site_state(idx, spin, n) for n in idx.site_numbers}
        for m in idx.site_numbers:
            for n in idx.site_numbers:
                if abs(m - n) > sites // 2:
                    continue
                numeric = abs(np.vdot(states[int(m)], states[int(n)]))
                analytic = overlap_modulus(spin, math.pi / 2.0,
                                           int(m - n) * idx.delta_phi,
                                           math.pi / 2.0, 0.0)
                worst = max(worst, abs(numeric - analytic))
    elapsed = time.monotonic() - start
    _report(2, "equator site overlaps", worst < 1e-10 and elapsed < 5.0,
            f"max error = {worst:.2e} for L in {{6, 40}}, {elapsed:.2f} s")


def test_criterion_3_closed_form_density_matrices():
    start = time.monotonic()
    idx = SiteIndexing(6)
    spin = SpinQuantum(50)
    sched = WalkSchedule.site_aligned(idx, 2)
    states = evolve(initial_state(idx, spin), CoinPulse.hadamard(), sched)
    err1 = float(np.linalg.norm(reduce_walker(states[1]).entries
                                - step1_reference(idx, spin).entries))
    err2 = float(np.linalg.norm(reduce_walker(states[2]).entries
                                - step2_reference(idx, spin).entries))
    elapsed = time.monotonic() - start
    _report(3, "closed-form density matrices",
            err1 < 1e-10 and err2 < 1e-10 and elapsed < 5.0,
            f"Frobenius errors k=1: {err1:.2e}, k=2: {err2:.2e}, "
            f"{elapsed:.2f} s")


def test_criterion_4_wigner_normalization(ballistic_run):
    worst = max(ballistic_run["residuals"])
    elapsed = ballistic_run["elapsed"]
    _report(4, "Wigner normalization", worst < 1e-6 and elapsed < 120.0,
            f"max |norm - 1| = {worst:.2e} over steps 0..9, "
            f"run took {elapsed:.1f} s")


def test_criterion_5_kernel_sanity():
    w = kernel_weights(SpinQuantum(1))
    err_half = max(abs(w[0] - (1.0 + math.sqrt(3.0)) / 2.0),
                   abs(w[1] - (1.0 - math.sqrt(3.0)) / 2.0))
    worst_sum = 0.0
    for two_j in (1, 2, 3, 5, 10, 20, 41, 100, 150, 200):
        s = math.fsum(kernel_weights(SpinQuantum(two_j)))
        worst_sum = max(worst_sum, abs(s - 1.0))
    _report(5, "kernel weights sanity",
            err_half < 1e-12 and worst_sum < 1e-10,
            f"spin-1/2 closed-form error {err_half:.2e}, "
            f"max |sum - 1| = {worst_sum:.2e} up to j = 100")


def test_criterion_6_ideal_walk_oracle():
    idx = SiteIndexing(12)
    probs = ideal_walk(12, 2, HADAMARD)[2]
    expect = np.zeros(12)
    expect[idx.site_numbers == 2] = 0.25
    expect[idx.site_numbers == 0] = 0.5
    expect[idx.site_numbers == -2] = 0.25
    err = float(np.abs(probs - expect).max())
    _report(6, "ideal walk two-step distribution", err < 1e-12,
            f"max deviation from (1/4, 1/2, 1/4) = {err:.2e}")


def _wrong_parity_leakage(sites: int, two_j: int) -> tuple[float, float]:
    """r = sqrt(N) pi / L and the Gaussian leakage erfc(r / sqrt 2).

    erfc(r / sqrt 2) is the mass a packet of angular width 1/sqrt(N) puts
    outside a site bin of half-width pi/L.
    """
    r = math.sqrt(two_j) * math.pi / sites
    return r, math.erfc(r / math.sqrt(2.0))


def test_criterion_7_late_time_site_distribution(ballistic_run):
    # The Hadamard walk from site 0 occupies only sites n = k (mod 2), so the
    # late-time TV is the mass the bins give to the other parity: the part of
    # each packet (width 1/sqrt(N)) that leaks out of its own bin (half-width
    # pi/L). It depends only on r = sqrt(N) pi / L and equals erfc(r/sqrt 2).
    # The paper promises convergence as N grows, so TV < 0.05 is asserted
    # where r >= 2.2 (the bin half-width is at least 2.2 packet widths), and
    # the ballistic run (L = 40, N = 200, r = 1.11) is held to its leakage
    # erfc(r/sqrt 2) within 0.01.
    idx = SiteIndexing(20)
    spin = SpinQuantum(200)
    sched = WalkSchedule.site_aligned(idx, 9)
    state = evolve(initial_state(idx, spin), CoinPulse.hadamard(), sched)[9]
    grid = wigner_grid(state, (202, 320))
    tv_fine = tv_distance(marginal_phi(grid, idx).site_probabilities,
                          ideal_walk(20, 9, HADAMARD)[9])
    r_fine, leak_fine = _wrong_parity_leakage(20, 200)

    tv_ball = tv_distance(ballistic_run["site_probs"][9],
                          ballistic_run["ideal"][9])
    r_ball, leak_ball = _wrong_parity_leakage(40, 200)

    _report(7, "late-time site distribution",
            r_fine >= 2.2 and tv_fine < 0.05
            and abs(tv_ball - leak_ball) < 0.01,
            f"TV(coherent, ideal) at k=9: L=20, N=200, r={r_fine:.2f}: "
            f"{tv_fine:.4f} (required < 0.05; erfc(r/sqrt2) = "
            f"{leak_fine:.4f}); L=40, N=200, r={r_ball:.2f}: {tv_ball:.4f} "
            f"(required within 0.01 of erfc(r/sqrt2) = {leak_ball:.4f})")


def test_criterion_8_ballistic_spread(ballistic_run):
    ks = np.arange(2, 10)
    sc = np.array(ballistic_run["sigma_coherent"])[2:]
    si = np.array(ballistic_run["sigma_ideal"])[2:]
    _, _, r2_c = linear_fit_r2(ks, sc)
    _, _, r2_i = linear_fit_r2(ks, si)
    rel = np.abs(sc - si) / si
    _report(8, "ballistic spread",
            r2_c > 0.99 and r2_i > 0.99 and rel.max() < 0.05,
            f"R^2 coherent {r2_c:.4f}, ideal {r2_i:.4f}; "
            f"max relative gap {rel.max():.3f} for k = 2..9")


def test_criterion_9_convergence_to_ideal():
    idx = SiteIndexing(6)
    ideal = ideal_walk(6, 2, HADAMARD)[2]
    tvs = []
    for two_j in (10, 50, 200):
        spin = SpinQuantum(two_j)
        sched = WalkSchedule.site_aligned(idx, 2)
        states = evolve(initial_state(idx, spin), CoinPulse.hadamard(),
                        sched)
        grid = wigner_grid(states[2], (two_j + 2, 240))
        dist = marginal_phi(grid, idx)
        tvs.append(tv_distance(dist.site_probabilities, ideal))
    ok = tvs[0] > tvs[1] > tvs[2]
    _report(9, "convergence to the ideal walk", ok,
            "TV at N = 10, 50, 200: "
            + ", ".join(f"{t:.4f}" for t in tvs))


def test_criterion_10_cli_determinism(tmp_path):
    args = ["--sites", "6", "--spins", "10", "--steps", "1"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    same = True
    for p in sorted(out_a.iterdir()):
        if p.name == "manifest.json":
            fa = json.loads(p.read_text())["files"]
            fb = json.loads((out_b / p.name).read_text())["files"]
            same = same and fa == fb
        else:
            same = same and p.read_bytes() == (out_b / p.name).read_bytes()
    _report(10, "CLI determinism", same,
            f"{len(list(out_a.iterdir()))} artifacts byte-compared across "
            f"two identical runs")


def test_criterion_11_convergence_at_forty_sites():
    # The paper's claim that more spins remove the nonorthogonality, tested
    # at L = 40 where criterion 7 can only check the leakage: N = 800 gives
    # r = sqrt(N) pi / L = 2.22, the r at which criterion 7 asserts
    # TV < 0.05 for L = 20. No grid is built: the exact marginal needs the
    # N = 800 kernel weights and theta kernel only.
    start = time.monotonic()
    sites, two_j = 40, 800
    idx = SiteIndexing(sites)
    sched = WalkSchedule.site_aligned(idx, 9)
    state = evolve(initial_state(idx, SpinQuantum(two_j)),
                   CoinPulse.hadamard(), sched)[9]
    dist = marginal_phi(state, idx, sites * (two_j // sites + 1))
    tv = tv_distance(dist.site_probabilities,
                     ideal_walk(sites, 9, HADAMARD)[9])
    r, leak = _wrong_parity_leakage(sites, two_j)
    elapsed = time.monotonic() - start
    _report(11, "convergence at L = 40", r >= 2.2 and tv < 0.05,
            f"TV(coherent, ideal) at k=9: L={sites}, N={two_j}, r={r:.2f}: "
            f"{tv:.4f} (required < 0.05; erfc(r/sqrt2) = {leak:.4f}), "
            f"{elapsed:.1f} s")


def test_criterion_12_leakage_beyond_a_thousand_spins():
    # Past N = 1043 the kernel weights need a Clebsch-Gordan recursion that
    # fixes its own scale. At L = 40, N = 1100 (r = 2.60) the late-time TV
    # is the wrong-parity leakage again, now well below criterion 7's bound.
    start = time.monotonic()
    sites, two_j = 40, 1100
    idx = SiteIndexing(sites)
    sched = WalkSchedule.site_aligned(idx, 9)
    state = evolve(initial_state(idx, SpinQuantum(two_j)),
                   CoinPulse.hadamard(), sched)[9]
    dist = marginal_phi(state, idx, sites * (two_j // sites + 1))
    tv = tv_distance(dist.site_probabilities,
                     ideal_walk(sites, 9, HADAMARD)[9])
    r, leak = _wrong_parity_leakage(sites, two_j)
    elapsed = time.monotonic() - start
    _report(12, "leakage at N = 1100", tv < 0.05 and abs(tv - leak) < 0.01,
            f"TV(coherent, ideal) at k=9: L={sites}, N={two_j}, r={r:.2f}: "
            f"{tv:.5f} (required < 0.05 and within 0.01 of "
            f"erfc(r/sqrt2) = {leak:.5f}), {elapsed:.1f} s")
