"""The `param-scan` workload: a library user's parameter scan in one process.

The outer loops run over walk latitudes theta0 and coin pulse vectors drawn
from --seed; the inner loop cycles the spin counts SPINS.  Each operation
(one scan point) goes evolve -> reduce_walker -> wigner_grid on the
DensityMatrix path -> marginal_phi -> sigma_from_marginal through the public
`blochwalk` names, and is checked outside its timed region.  The scan saves
one JSON line per point to --records, which is the output it writes.

    python scan.py --seed S --out RESULT_JSON --records RECORDS_JSONL
                   (--seconds T | --passes P) [--spans SPANS_JSON]

RESULT_JSON holds the per-operation times and any failures.  With --spans
the layer functions are wrapped (see tracer.py) and the spans are written
there when the scan ends.
"""

import argparse
import contextlib
import hashlib
import json
import math
import random
import sys
import time
import traceback

import numpy as np

import blochwalk as bw

import tracer

SITES = 12
STEPS = 5
# Odd counts give half-integer J; three sizes exceed the two-entry d-stack
# cache in blochwalk.wigner, so every point rebuilds its theta-frame stack.
SPINS = (61, 80, 101)
LATITUDES = 4
PULSES = 3


def scan_points(seed: int) -> list[tuple[float, tuple, int]]:
    """(theta0, pulse vector, spins) per point, latitudes away from the poles."""
    rng = random.Random(seed)
    thetas = [rng.uniform(math.pi / 6.0, 5.0 * math.pi / 6.0)
              for _ in range(LATITUDES)]
    pulses = []
    for _ in range(PULSES):
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        scale = rng.uniform(0.5 * math.pi, 1.5 * math.pi) / math.sqrt(
            sum(x * x for x in v))
        pulses.append(tuple(scale * x for x in v))
    return [(t, h, n) for t in thetas for h in pulses for n in SPINS]


def resolution(spins: int) -> tuple[int, int]:
    """n_theta = 2J + 2 (the CLI default) and the smallest multiple of the
    site count above 2J + 1, so the phi rule integrates W exactly."""
    return spins + 2, SITES * (spins // SITES + 1)


def scan_point(theta0: float, h: tuple, spins: int):
    indexing = bw.SiteIndexing(SITES, theta0)
    spin = bw.SpinQuantum(spins)
    schedule = bw.WalkSchedule.site_aligned(indexing, STEPS)
    final = bw.evolve(bw.initial_state(indexing, spin), bw.CoinPulse(h),
                      schedule)[-1]
    grid = bw.wigner_grid(bw.reduce_walker(final), resolution(spins))
    dist = bw.marginal_phi(grid, indexing)
    return final, grid, dist, bw.sigma_from_marginal(dist)


def check(grid, dist, sigma) -> list[str]:
    """Invariants every point must meet, written so that NaN fails them."""
    problems = []
    residual = abs(grid.normalization() - 1.0)
    if not residual <= 1e-4:
        problems.append(f"Wigner normalization residual {residual!r}")
    site_err = abs(float(dist.site_probabilities.sum()) - 1.0)
    if not site_err <= 1e-9:
        problems.append(f"site probabilities sum off by {site_err!r}")
    if not math.isfinite(sigma):
        problems.append(f"sigma is {sigma!r}")
    return problems


def spot_check(final, dist, theta0: float, spins: int) -> float:
    """Largest site-probability gap between the DensityMatrix path and the
    pure CoinWalkerState path for the same state."""
    pure = bw.marginal_phi(bw.wigner_grid(final, resolution(spins)),
                           bw.SiteIndexing(SITES, theta0))
    return float(np.abs(pure.site_probabilities
                        - dist.site_probabilities).max())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--records", required=True)
    stop = ap.add_mutually_exclusive_group(required=True)
    stop.add_argument("--seconds", type=float)
    stop.add_argument("--passes", type=int)
    ap.add_argument("--spans")
    args = ap.parse_args()

    points = scan_points(args.seed)
    rec = tracer.Tracer()
    span = contextlib.nullcontext
    if args.spans:
        rec.install(tracer.SCAN_BINDINGS + tracer.INNER_BINDINGS)
        span = rec.span

    ops, failures, digests = [], [], {}
    spot_max = 0.0
    records_bytes = 0
    start = time.perf_counter()
    with open(args.records, "w") as records:
        i = 0
        while (i < args.passes * len(points) if args.passes is not None
               else time.perf_counter() - start < args.seconds):
            which = i % len(points)
            theta0, h, spins = points[which]
            i += 1
            try:
                t0 = time.perf_counter()
                with span("scan.point"):
                    final, grid, dist, sigma = scan_point(theta0, h, spins)
                elapsed = time.perf_counter() - t0
                # Checks call blochwalk too; keep them out of the spans.
                rec.enabled = False
                problems = check(grid, dist, sigma)
                digest = hashlib.sha256(dist.site_probabilities.tobytes()
                                        + repr(sigma).encode()).hexdigest()
                if digests.setdefault(which, digest) != digest:
                    problems.append("result differs from an earlier repeat "
                                    "of the same point")
                if i <= len(points):
                    gap = spot_check(final, dist, theta0, spins)
                    spot_max = max(spot_max, gap)
                    if not gap <= 1e-10:
                        problems.append(f"DensityMatrix and pure-state site "
                                        f"probabilities differ by {gap!r}")
                rec.enabled = True
            except Exception:
                rec.enabled = True
                failures.append(f"point {which}: {traceback.format_exc()}")
                ops.append([which, None])
                continue
            line = json.dumps({
                "theta0": theta0, "h": list(h), "spins": spins,
                "sigma": sigma,
                "site_probabilities": dist.site_probabilities.tolist(),
            }) + "\n"
            records.write(line)
            records_bytes += len(line.encode())
            if problems:
                failures.append(f"point {which}: " + "; ".join(problems))
            ops.append([which, None if problems else elapsed])

    if args.spans:
        rec.dump(args.spans)
    with open(args.out, "w") as fh:
        json.dump({"ops": ops, "failures": failures,
                   "records_bytes": records_bytes,
                   "spot_check_max_gap": spot_max,
                   "points": len(points)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
