"""One cold benchmark process: set up, run one pass of cases, check.

    python3 perfbench/child.py <mode> <workload> <case_seed> <count> \
        <order_seed> <spawn_ns>

`mode` is `setup` (import atomcat and make the inputs, then stop),
`pass` (run every case once) or `traced` (a pass under the layer
tracer).  `count` is passed to the workload's `cases()`; `order_seed`
shuffles the cases.  `spawn_ns` is the parent's CLOCK_MONOTONIC reading
just before it started this process, so set-up time includes
interpreter start.  Prints one JSON object on stdout.

Operations run one at a time; each starts when the previous returned.
Each result is checked outside the operation's timer (under the tracer,
after the pass, so that checks add no spans).  An operation that raised
or failed its check is reported, never fatal to the pass.
"""

import json
import resource
import sys
import time
import traceback

import numpy as np

import bench_env


def check_results(wl, done):
    """[case, reason, expected] for every failed (input, result) pair; a
    result is an exception when the operation raised."""
    failures = []
    for inp, result in done:
        if isinstance(result, Exception):
            reason = "".join(traceback.format_exception_only(
                type(result), result)).strip()
            context = getattr(result, "context", None)
            if context:
                reason += f" {context}"
            expected = wl.expected_failure(inp, result)
        else:
            reason, expected = wl.check(inp, result), False
        if reason is not None:
            failures.append([str(inp[0]), reason, expected])
    return failures


def main(argv):
    mode, name, case_seed, count, order_seed, spawn_ns = argv
    bench_env.use_checkout_source()
    from workloads import WORKLOADS
    wl = WORKLOADS[name]
    cases = wl.cases(int(case_seed), int(count))
    order = np.random.default_rng(int(order_seed)).permutation(len(cases))
    cases = [cases[i] for i in order]
    out = {"setup_s": (time.monotonic_ns() - int(spawn_ns)) / 1e9}
    if mode == "setup":
        print(json.dumps(out))
        return

    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer().install()
    latencies, done, failures = [], [], []
    for inp in cases:
        t0 = time.perf_counter()
        try:
            result = wl.run(inp)
        except Exception as exc:   # counted as a failed operation
            result = exc
        latencies.append(time.perf_counter() - t0)
        if tracer is None:
            failures += check_results(wl, [(inp, result)])
        else:
            done.append((inp, result))
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        failures = check_results(wl, done)
        out["trace"] = tracer.metrics(sum(latencies))
        out["top_functions"] = tracer.top_functions()
    out.update(names=[str(inp[0]) for inp in cases], latencies=latencies,
               failures=failures, env=bench_env.environment())
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
