"""Run every workload in fresh processes, print all metrics, check steadiness.

    python3 perfbench/suite.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                               [--write-baseline]

For each workload this makes ``--runs`` untraced runs, each with another
seed, then three traced runs: two on the first seed and one on the last.  It
prints the command-level end-to-end metrics (median over runs of each run's
median), the spread of each gated metric (interquartile distance over the
runs as a share of the median) against its bound in BENCHMARK.json, and the
per-layer metrics of the traced runs.  Every count must repeat exactly: all
of them between the two traced runs on one seed, and all but the artifact
byte count (which depends on the digits of the values) across seeds.
``--write-baseline`` stores the figures of the workloads run in
``baseline.json``; ``run.py`` divides each command's cost by the one there.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED_DEPENDENT_COUNTS = {"data_io.artifact_bytes"}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One fresh benchmark process; returns (its result line, its detail file)."""
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((BENCH / "_results" / f"{workload}.trace{trace}.json").read_text())
    return result, detail


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [args.first_seed + i for i in range(args.runs)]
    baseline = {"run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for name in args.workload or names:
        print(f"== {name}", flush=True)
        runs = []
        for seed in seeds:
            result, detail = run_once(name, seed, args.seconds, 0)
            runs.append((result, detail))
            m = result["metrics"]
            print(f"  seed {seed}: correct {result['correct']} ({result['failed']}/{result['attempted']} failed)  "
                  + "  ".join(f"{k} {v['value']:.4f}" for k, v in m.items()), flush=True)
        attempted = sum(r["attempted"] for r, _ in runs)
        failed = sum(r["failed"] for r, _ in runs)
        steady &= failed == 0
        entry = {"failed": failed, "attempted": attempted, "end_to_end": {}, "named": {}, "per_layer": {}}
        print(f"  failed_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r, _ in runs if metric["name"] in r["metrics"]]
            if len(values) < len(runs):
                steady = False
                print(f"  {metric['name']:24s} MISSING in {len(runs) - len(values)} of {len(runs)} runs")
                if not values:
                    continue
            q1, med, q3 = stats.quartiles(values)
            share = stats.spread(values)
            ok = share <= bounds[metric["name"]] / 3
            steady &= ok
            entry["end_to_end"][metric["name"]] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                                                   "spread": share, "unit": metric["unit"]}
            print(f"  {metric['name']:24s} {med:.6g} {metric['unit']}  spread {share:.2%} "
                  f"(bound {bounds[metric['name']]:.0%}){'' if ok else '  NOT STEADY'}")
        for metric, sample in runs[0][1]["samples"].items():
            values = [statistics.median(d["samples"][metric]["values"]) for _, d in runs
                      if d["samples"][metric]["values"]]
            if not values:
                continue
            q1, med, q3 = stats.quartiles(values)
            entry["named"][metric] = {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": sample["unit"]}
            print(f"  {metric:24s} {med:.6g} {sample['unit']}  [q1 {q1:.6g}, q3 {q3:.6g}] runs={len(values)}")
        traced = [run_once(name, seed, args.seconds, 1)[0] for seed in (seeds[0], seeds[0], seeds[-1])]
        for r in traced:
            steady &= r["failed"] == 0
        for metric in spec["per_layer"]:
            key, unit = metric["name"], metric["unit"]
            values = [r["metrics"][key]["value"] for r in traced if key in r["metrics"]]
            if unit in ("count", "bytes"):
                same = values[:2] if key in SEED_DEPENDENT_COUNTS else values
                exact = len(set(same)) == 1
                steady &= exact
                note = "" if exact else f"  COUNT DIFFERS {values}"
            else:
                note = ""
            med = statistics.median(values) if values else None
            entry["per_layer"][key] = {"median": med, "values": values, "unit": unit}
            shown = f"{med:.6g}" if med is not None else "n/a"
            print(f"  {key:44s} {shown} {unit}{note}")
        baseline["workloads"][name] = entry
        baseline["env"] = runs[-1][1]["env"]
    print("steady" if steady else "NOT steady: see the lines marked above")
    if args.write_baseline:  # replaces the entries of the workloads run, keeps the others
        path = BENCH / "baseline.json"
        if path.is_file():
            kept = json.loads(path.read_text())["workloads"]
            baseline["workloads"] = dict(kept, **baseline["workloads"])
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
