"""Repeat benchmark runs in sets and summarize them into a baseline file.

    python3 perfbench/baseline.py --seeds 1-10 --sets 2 [--workloads a,b] \
        [--seconds 30] [--out perfbench/baseline.json] [--raw runs.jsonl]

Each set makes one `--trace 0` run per seed on every workload, one run
at a time; sets run one after the other.  For each set, workload and
end-to-end metric it records every run's value, the median, the
quartiles (`statistics.quantiles(n=4)`) and the spread, (Q3 - Q1) /
median.  It then records by what share of the first set's median each
later set's median is worse, next to the metric's bound from
BENCHMARK.json.  Last, one `--trace 1` run per workload on the first
seed.  `--raw` also writes every run's detail and result lines.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail)["detail"], json.loads(result)


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out")
    ap.add_argument("--raw")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    raw = open(args.raw, "a") if args.raw else None
    runs = {w: [] for w in workloads}      # per workload: one list per set
    tail_percentile = {}
    for set_no in range(args.sets):
        for workload in workloads:
            runs[workload].append([])
            for seed in seeds:
                detail, result = run_once(workload, seed, args.seconds, 0)
                runs[workload][-1].append(result)
                tail_percentile[workload] = detail["tail_percentile"]
                if raw:
                    raw.write(json.dumps({"set": set_no, "detail": detail,
                                          "result": result}) + "\n")
                    raw.flush()
                print(set_no, workload, seed, result["correct"],
                      {k: round(m["value"], 4)
                       for k, m in result["metrics"].items()}, flush=True)
    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in workloads:
        entry = {"correct": all(r["correct"] for s in runs[workload]
                                for r in s),
                 "attempted": [[r["attempted"] for r in s]
                               for s in runs[workload]],
                 "failed": [[r["failed"] for r in s]
                            for s in runs[workload]],
                 "sets": [], "worse_than_first_set": {}}
        for set_runs in runs[workload]:
            entry["sets"].append({
                name: summarize([r["metrics"][name]["value"]
                                 for r in set_runs])
                for name in metrics})
        for name, m in metrics.items():
            first = entry["sets"][0][name]["median"]
            sign = 1 if m["better"] == "lower" else -1
            entry["worse_than_first_set"][name] = {
                "values": [sign * (s[name]["median"] - first) / first
                           for s in entry["sets"][1:]],
                "bound": m["bound"]}
            print(f"{workload:15s} {name:12s} medians "
                  f"{[round(s[name]['median'], 4) for s in entry['sets']]}"
                  f" spreads "
                  f"{[round(s[name]['spread'], 3) for s in entry['sets']]}"
                  f" worse {[round(v, 3) for v in entry['worse_than_first_set'][name]['values']]}"
                  f" (bound {m['bound']})", flush=True)
        detail, traced = run_once(workload, seeds[0], args.seconds, 1)
        if raw:
            raw.write(json.dumps({"set": "traced", "detail": detail,
                                  "result": traced}) + "\n")
        entry["traced"] = {"seed": seeds[0], "correct": traced["correct"],
                           "metrics": {k: m["value"] for k, m in
                                       traced["metrics"].items()},
                           "top_functions": detail["top_functions"]}
        entry["tail_percentile"] = tail_percentile[workload]
        entry["failures"] = detail["failures"]
        report["env"] = detail["env"]
        report["workloads"][workload] = entry
    text = json.dumps(report, indent=1)
    if args.out:
        pathlib.Path(args.out).write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
