"""Write `cases.json`: the listed cases of `spectra-nondag` and
`realize-acc` for every case seed in `workloads.CASE_SEEDS`.

    python3 perfbench/make_cases.py [count]

`spectra-nondag`: the first `count` quivers of the seed stream that are
not DAGs after loop stripping, as [seed, atom count, dimensions], the
reference fingerprint each run's results must match.
`realize-acc`: [poset seed, depth, vertices] for every depth 1 to 8 of
the seed stream's `random_poset(s, 6)` whose truncation has between
MIN_VERTICES and MAX_VERTICES vertices, until `count` are listed.

Every listed case must pass its check.  The file was made once, at the
commit that introduced the benchmark, and defines the benchmark's
reference answers, so it is not remade.
"""

import json
import sys

import bench_env

bench_env.use_checkout_source()

from atomcat import generators, harness, quiver  # noqa: E402
from workloads import (CASE_SEEDS, CASES_FILE, WORKLOADS,  # noqa: E402
                       seed_stream)

MIN_VERTICES, MAX_VERTICES = 20, 600


def spectra_cases(case_seed, count):
    wl, out = WORKLOADS["spectra-nondag"], []
    for s in seed_stream(case_seed, 10 * count):
        q = wl.quiver(s)
        if q is None:
            continue
        report = wl.run((f"quiver{s}", q))
        atoms, dims = wl.fingerprint(report)
        reason = wl.check((f"quiver{s}", q, atoms, dims), report)
        if reason:
            raise SystemExit(f"quiver {s}: {reason}")
        out.append([s, atoms, dims])
        if len(out) == count:
            return out
    raise SystemExit("seed stream too short")


def realize_cases(case_seed, count):
    wl, out = WORKLOADS["realize-acc"], []
    for s in seed_stream(case_seed, 10 * count):
        poset = harness.random_poset(s, 6)
        for d in range(1, 9):
            gen = generators.gen_realization_acc(
                poset, quiver.TruncationSpec(depth=d))
            size = len(gen.quiver.vertices)
            if size > MAX_VERTICES:
                break
            if size < MIN_VERTICES:
                continue
            inp = (f"poset{s}@{d}", poset, d)
            reason = wl.check(inp, wl.run(inp))
            if reason:
                raise SystemExit(f"{inp[0]}: {reason}")
            out.append([s, d, size])
            if len(out) == count:
                return out
    raise SystemExit("seed stream too short")


def main(argv):
    count = int(argv[0]) if argv else 300
    out = {"made_with": f"python3 perfbench/make_cases.py {count}",
           "spectra-nondag": {}, "realize-acc": {}}
    for case_seed in CASE_SEEDS:
        out["spectra-nondag"][str(case_seed)] = spectra_cases(case_seed,
                                                              count)
        out["realize-acc"][str(case_seed)] = realize_cases(case_seed, count)
        print(case_seed, "done", flush=True)
    CASES_FILE.write_text(json.dumps(out, separators=(",", ":")) + "\n")
    print(f"{CASES_FILE}: {count} cases per workload and case seed")


if __name__ == "__main__":
    main(sys.argv[1:])
