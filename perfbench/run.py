"""atomcat benchmark entry point.

    python3 perfbench/run.py --workload core-gf2 --seed 1 --seconds 36 \
        --trace 0 [--case-seed 20240811]

Each run starts fresh single-threaded child processes, because every
CLI invocation of atomcat starts cold: lazy caches such as the GL(k, p)
tables fill inside the measured operations.  A pass is one cold child
that runs every case of the workload once, in the order `--seed` gives.
`--seconds` sets how many cases a pass holds, so that a run's passes
take about that long on the machine that made the baseline.

With `--trace 0` a run makes PASSES passes of the same cases in the
same order and reports each timing as its mean over the passes, which
evens out slow and fast stretches of a shared host; it makes fewer
passes when the host is so slow that another pass would end after
SLOW_STOP x `--seconds`.  Set-up time is the median over the passes
and SETUP_PROBES set-up-only children.  With `--trace 1` it makes one
untraced and one traced pass and prints the per-layer metrics.

The last stdout line is the result object; the line before it holds
the details (environment, tail percentile, failures, per-pass figures,
largest self times).  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench_env  # noqa: E402

# cases per pass for each second of --seconds (truncations, besides the
# fixed posets, on realize-acc), so that three passes take about
# --seconds on a 2-vCPU 2 GHz Xeon; the parent never imports atomcat
CASES_PER_S = {"core-gf2": 1.2, "spectra-nondag": 1.5, "realize-acc": 4.75}
CASE_SEEDS = (20240811, 424242)
PASSES = 3
SETUP_PROBES = 12
# the slowest cases' times jump across gaps in the per-case time
# distribution, so the tail is their mean rather than one of them
TAIL_COUNT = 10
RUN_LIMIT_S = 170
SLOW_STOP = 1.6


def spawn(mode, args, deadline):
    """Run one child to completion; its JSON result."""
    env = dict(os.environ, **bench_env.CHILD_ENV)
    count = max(1, round(CASES_PER_S[args.workload] * args.seconds))
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode,
           args.workload, str(args.case_seed), str(count), str(args.seed),
           str(time.monotonic_ns())]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(latencies):
    """ops_per_s, op_p50_ms, op_tail_ms (the mean of the TAIL_COUNT
    slowest operations) and the percentile those lie beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    tail = ordered[-TAIL_COUNT:]
    return {"ops_per_s": n / sum(ordered),
            "op_p50_ms": statistics.median(ordered) * 1e3,
            "op_tail_ms": statistics.mean(tail) * 1e3,
            "tail_percentile": 100 * (n - len(tail)) / n}


def is_correct(failures):
    """True unless an operation gave a wrong answer or raised an
    exception other than a known failure of today's program."""
    return all(expected for *_, expected in failures)


def end_to_end(args, deadline):
    start = passes_end = time.monotonic()
    # on a slow host, stop before a pass would end after SLOW_STOP x
    # --seconds, so that a run's length stays bounded
    stop = min(deadline, start + SLOW_STOP * args.seconds)
    passes = []
    while len(passes) < PASSES:
        t0 = time.monotonic()
        passes.append(spawn("pass", args, deadline))
        passes_end = time.monotonic()
        if passes_end + (passes_end - t0) > stop:
            break
    setups = [p["setup_s"] for p in passes] + [
        spawn("setup", args, deadline)["setup_s"]
        for _ in range(SETUP_PROBES)]
    per_pass = [summary(p["latencies"]) for p in passes]
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    metrics = {key: (statistics.mean(s[key] for s in per_pass), unit)
               for key, unit in (("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
                                 ("op_tail_ms", "ms"))}
    metrics.update({
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
        "ok_frac": (1 - failed / attempted, "ratio"),
    })
    detail = {"tail_percentile": per_pass[0]["tail_percentile"],
              "per_pass": per_pass, "passes_s": passes_end - start,
              "setup_samples_s": setups}
    return passes, metrics, detail


def traced(args, deadline):
    plain = spawn("pass", args, deadline)
    run = spawn("traced", args, deadline)
    plain_rate = len(plain["latencies"]) / sum(plain["latencies"])
    traced_rate = len(run["latencies"]) / sum(run["latencies"])
    metrics = dict(run["trace"])
    metrics["trace.overhead_frac"] = (
        (plain_rate - traced_rate) / plain_rate, "ratio")
    detail = {"top_functions": run["top_functions"]}
    return [plain, run], metrics, detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=CASES_PER_S)
    ap.add_argument("--seed", type=int, default=1,
                    help="shuffles the order of the cases")
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--case-seed", type=int, choices=CASE_SEEDS,
                    default=CASE_SEEDS[0], help="which cases run")
    args = ap.parse_args()
    if not (bench_env.SRC / "atomcat" / "__init__.py").is_file():
        raise SystemExit(f"no atomcat source under {bench_env.SRC}")
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        children, metrics, detail = traced(args, deadline)
    else:
        children, metrics, detail = end_to_end(args, deadline)
    failures = [f for c in children for f in c["failures"]]
    detail.update(workload=args.workload, seed=args.seed,
                  case_seed=args.case_seed, seconds=args.seconds,
                  trace=args.trace, passes=len(children),
                  cases=len(children[0]["latencies"]),
                  failures=sorted(Counter(
                      f"{name}: {reason}" + ("" if expected else
                                             " (unexpected)")
                      for name, reason, expected in failures).items()),
                  env=children[0]["env"])
    result = {"correct": is_correct(failures),
              "attempted": sum(len(c["latencies"]) for c in children),
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
