"""Record the benchmark baseline: every workload, several seeds, two sets.

    python3 perfbench/baseline.py

Runs `run.py` once per (set, workload, seed) with tracing off, SETS sets of
SEEDS seeds, then TRACE_SEEDS traced runs per workload.  Writes to
baseline.json, per metric, the median, quartiles and spread (interquartile
range over median) of each set and the change of the second set's median
against the first; also the machine, the reason for each workload, which
layer metric should move which end-to-end metric, and the shares of
run_experiment spent in emission and in the Wigner grids.  Prints one line
per (workload, set, metric) with its unit.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SEEDS = 10
SETS = 2
TRACE_SEEDS = 3

# Which per-layer metric should move which end-to-end metric, per workload.
EXPECTED_MOVES = {
    "ballistic-artifacts": {
        "render.render_heatmap_svg.busy_s": ["op_p50_s", "artifact_mb"],
        "render.svg.bytes": ["artifact_mb"],
        "render.svg.rects": ["op_p50_s", "artifact_mb"],
        "cli.write_wigner_csv.busy_s": ["op_p50_s", "states_per_s"],
        "cli.write_wigner_csv.bytes": ["artifact_mb"],
        "cli.write_marginal_csv.busy_s": ["op_p50_s"],
        "cli.write_sites_csv.busy_s": ["op_p50_s"],
        "cli.write_sigma_csv.busy_s": ["op_p50_s"],
        "wigner.wigner_grid.busy_s": ["op_p50_s", "states_per_s"],
        "cli.run_experiment.self_s": ["op_p50_s"],
        "cli.parse_config.busy_s": ["setup_s"],
        "su2.small_d_matrix.busy_s": ["op_p50_s (5% or less)"],
    },
    "ballistic-stats": {
        "wigner.wigner_grid.busy_s": ["op_p50_s", "states_per_s"],
        "wigner.wigner_grid.self_s": ["op_p50_s", "states_per_s"],
        "wigner.grid.flops": ["op_p50_s", "states_per_s"],
        "wigner.marginal_phi.busy_s": ["op_p50_s"],
        "wigner.sigma_from_marginal.busy_s": ["op_p50_s"],
        "render.render_heatmap_svg.busy_s": ["none: no emission here"],
        "su2.small_d_matrix.busy_s": ["op_p50_s (5% or less)"],
        "cli.parse_config.busy_s": ["setup_s"],
    },
    "param-scan": {
        "wigner.dstack.builds": ["op_p50_s", "states_per_s"],
        "wigner.dstack.hit_ratio": ["op_p50_s", "states_per_s"],
        "su2.small_d_matrix.calls": ["op_p50_s", "op_tail_s"],
        "su2.small_d_matrix.busy_s": ["op_p50_s", "op_tail_s"],
        "su2.cg_l0_family.calls": ["op_tail_s"],
        "su2.cg_l0_family.busy_s": ["op_tail_s"],
        "wigner.kernel_weights.busy_s": ["op_tail_s"],
        "wigner.wigner_grid.self_s": ["op_p50_s", "states_per_s"],
        "render.render_heatmap_svg.busy_s": ["none: no emission here"],
    },
}

TAIL = re.compile(r"^\s+op_tail_s\s+(\S+) s\s+\(p(\S+) of (\d+) operations, "
                  r"(\d+) beyond it\)")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    header = lines[0].split()
    result["machine"] = dict(zip(header[6::2], header[7::2]))
    result["tail"] = [m.groups() for m in map(TAIL.match, lines) if m]
    print(f"{workload} seed {seed} trace {trace}: correct "
          f"{result['correct']}, {result['failed']} of "
          f"{result['attempted']} failed", flush=True)
    if proc.stderr:
        print(proc.stderr, file=sys.stderr, flush=True)
    return result


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = {w["name"]: w["why"] for w in bench["workloads"]}

    record = {"run_seconds": seconds, "workloads": {}}
    for name, why in workloads.items():
        record["workloads"][name] = {"why": why,
                                     "expected_moves": EXPECTED_MOVES[name],
                                     "sets": []}
    for set_no in range(SETS):
        for name in workloads:
            runs = [run_once(name, set_no * 100 + seed, seconds, 0)
                    for seed in range(1, SEEDS + 1)]
            record["machine"] = runs[0]["machine"]
            metrics = {m: summarize([r["metrics"][m]["value"] for r in runs])
                       for m in runs[0]["metrics"]}
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            record["workloads"][name]["sets"].append({
                "seeds": [set_no * 100 + s for s in range(1, SEEDS + 1)],
                "correct": all(r["correct"] for r in runs),
                "error_rate": failed / attempted,
                "attempted": attempted,
                "op_tail_s": [dict(zip(("value", "percentile", "operations",
                                        "beyond"), map(float, t)))
                              for r in runs for t in r["tail"]],
                "metrics": metrics,
            })
    for name in workloads:
        traced = [run_once(name, seed, seconds, 1)
                  for seed in range(1, TRACE_SEEDS + 1)]
        entry = record["workloads"][name]
        entry["traced_correct"] = all(r["correct"] for r in traced)
        entry["per_layer"] = {
            m: summarize([r["metrics"][m]["value"] for r in traced])
            for m in traced[0]["metrics"]}
        layers = {m: v["median"] for m, v in entry["per_layer"].items()}
        total = layers["cli.run_experiment.busy_s"]
        if total:
            emission = layers["render.render_heatmap_svg.busy_s"] + sum(
                v for m, v in layers.items()
                if m.startswith("cli.write_") and m.endswith(".busy_s"))
            entry["share_of_run_experiment"] = {
                "emission (render + cli CSV writers)": emission / total,
                "wigner.wigner_grid": layers["wigner.wigner_grid.busy_s"]
                / total}
        sets = entry["sets"]
        if len(sets) > 1:
            entry["second_set_change"] = {
                m: sets[1]["metrics"][m]["median"]
                / sets[0]["metrics"][m]["median"] - 1.0
                for m in sets[0]["metrics"]}

    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, entry in record["workloads"].items():
        for set_no, s in enumerate(entry["sets"]):
            for m, v in s["metrics"].items():
                print(f"{name:20s} set {set_no} {m:14s} {v['median']:.6g} "
                      f"{units[m]:4s} spread {v['spread']:.3f} "
                      f"(bound {bounds[m]})")
            print(f"{name:20s} set {set_no} {'error_rate':14s} "
                  f"{s['error_rate']:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
