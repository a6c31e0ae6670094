"""Run every workload and print every metric by name, with its unit.

    python3 perfbench/report.py [--record FILE]

For each workload this runs ``run.py`` ``RUNS`` times untraced, with
seeds 1, 2, ..., and once traced with seed 1, one process at a time.  It
prints each end-to-end metric as the median over the runs with its
quartiles, the sample count and the spread (interquartile distance as a
share of the median) next to the metric's bound in BENCHMARK.json, and
``fail_frac`` (failed over attempted operations).  From the traced run it
prints every per-layer metric, the self time of each traced name and of
each module, and the tracing overhead: the traced run's median pass time
minus the median of the untraced runs.  ``--record`` also writes all of
it as JSON.  Exits 1 if any run failed, reported incorrect output, or
spread wider than its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("corpus", "deep_search", "verify_only")
RUNS = 10
REFERENCE_S = 0.04  # run.REFERENCE_S; importing run.py would set its BLAS settings here


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line and the run-information line of one run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def self_time_by_module(table: dict) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for name, row in table.items():
        out[name.split(".")[0]] += row["self_s"]
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def report_workload(workload: str, seconds: int, bounds: dict) -> tuple[dict, bool]:
    ok = True
    results = [run_once(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
    loops = [info["reference_loop_s"] for _, info in results]
    walls = [statistics.median(info["pass_wall_s"]) for _, info in results]
    attempted = sum(r["attempted"] for r, _ in results)
    failed = sum(r["failed"] for r, _ in results)
    ok &= all(r["correct"] for r, _ in results) and failed == 0
    end_to_end = {}
    print(f"\n== {workload}: {RUNS} untraced runs (seeds 1..{RUNS}), closed loop, 1 caller ==")
    print(f"{'metric':<14}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}{'spread':>9}{'bound':>7}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r, _ in results]
        unit = results[0][0]["metrics"][name]["unit"]
        stats = summarise(values)
        end_to_end[name] = {"unit": unit, **stats}
        if stats["spread"] > bound:
            ok = False
        print(f"{name:<14}{unit:<7}{stats['median']:>12.5g}{stats['q1']:>12.5g}"
              f"{stats['q3']:>12.5g}{stats['n']:>4}{stats['spread']:>9.2%}{bound:>7.2f}")
    fail_frac = failed / attempted
    print(f"{'fail_frac':<14}{'1':<7}{fail_frac:>12.5g}   ({failed} of {attempted} operations)")
    host = summarise(loops)
    print(f"host: reference loop median {host['median']:.4f} s (q1 {host['q1']:.4f}, q3 "
          f"{host['q3']:.4f}) against {REFERENCE_S} s; unscaled wall seconds inside CLI calls "
          f"per pass: median {statistics.median(walls):.4f} s")

    traced, info = run_once(workload, 1, seconds, 1)
    ok &= traced["correct"] and traced["failed"] == 0
    trace_file = json.loads((ROOT / ".perfbench_work" / f"trace-{workload}-s1.json").read_text())
    print(f"-- traced run (seed 1): {info['passes']} traced passes")
    overhead = {}
    for name, key in (("certify_s", "pass_certify_s"), ("verify_s", "pass_verify_s")):
        if workload == "verify_only" and name == "certify_s":
            print("   certify_s overhead: not measured, the timed phase certifies nothing")
            continue
        plain, with_trace = end_to_end[name]["median"], statistics.median(info[key])
        overhead[name] = {"untraced": plain, "traced": with_trace, "overhead": with_trace - plain}
        print(f"   {name:<9} untraced median {plain:.4f} s, traced {with_trace:.4f} s, "
              f"overhead {with_trace - plain:+.4f} s ({(with_trace - plain) / plain:+.1%})")
    print(f"   {'per-layer metric':<48}{'value':>14}  unit")
    for name, metric in traced["metrics"].items():
        print(f"   {name:<48}{metric['value']:>14.6g}  {metric['unit']}")
    table = trace_file["last_pass_layers"]
    print(f"   {'self time, last traced pass':<48}{'calls':>10}{'incl s':>10}{'self s':>10}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"   {name:<48}{row['calls']:>10}{row['inclusive_s']:>10.4f}{row['self_s']:>10.4f}")
    by_module = self_time_by_module(table)
    print("   self time by module: " + ", ".join(f"{k} {v:.3f} s" for k, v in by_module.items()))
    return {
        "end_to_end": end_to_end,
        "fail_frac": {"value": fail_frac, "failed": failed, "attempted": attempted},
        "reference_loop_s": host,
        "wall_s_per_pass": summarise(walls),
        "traced": {
            "seed": 1,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "self_s": {k: v["self_s"] for k, v in table.items()},
            "self_s_by_module": by_module,
            "overhead_s": overhead,
        },
        "machine": info["machine"],
    }, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", type=Path, help="also write the report as JSON here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        report["workloads"][workload], good = report_workload(workload, spec["run_seconds"], bounds)
        ok &= good
    if args.record:
        report["machine"] = next(iter(report["workloads"].values())).pop("machine")
        for entry in report["workloads"].values():
            entry.pop("machine", None)
        args.record.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print("\nall runs correct, every spread within its bound" if ok else "\nREPORT FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
