"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/selftest.py

Tiny runs of every workload must emit every metric BENCHMARK.json
names; traced counts must repeat exactly for a fixed seed; a wrong
fingerprint or an unexpected exception must count as a failed operation
and make the run incorrect; and the benchmark must refuse to run
without the program's source.
"""

import contextlib
import io
import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC_WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import bench_env  # noqa: E402

bench_env.use_checkout_source()

import child  # noqa: E402
import run  # noqa: E402
from atomcat import errors  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# counters that must not depend on timing
EXACT_COUNTS = [m["name"] for m in SPEC["per_layer"]
                if m["unit"] == "count"]


def bench(workload, trace, cwd=ROOT, seed=5):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def pass_output(argv):
    """Run child.main in this process; its JSON result."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        child.main(argv)
    return json.loads(buf.getvalue().strip().splitlines()[-1])


# every runnable workload, also those BENCHMARK.json leaves out
@pytest.fixture(scope="module", params=sorted(run.CASES_PER_S))
def tiny(request):
    """One untraced and two traced tiny runs of a workload."""
    out = {}
    for key, trace in (("plain", 0), ("traced", 1), ("again", 1)):
        proc = bench(request.param, trace)
        assert proc.returncode == 0, proc.stderr
        *_, detail, result = proc.stdout.strip().splitlines()
        out[key] = json.loads(result)
        out[key + "_detail"] = json.loads(detail)["detail"]
    return request.param, out


def test_workloads_match_the_spec():
    assert sorted(WORKLOADS) == sorted(run.CASES_PER_S)
    assert set(SPEC_WORKLOADS) <= set(WORKLOADS)


def test_tiny_runs_emit_every_metric(tiny):
    name, out = tiny
    for key, section in (("plain", "end_to_end"), ("traced", "per_layer")):
        result = out[key]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
    # the fan poset is the only operation allowed to fail (it does today)
    failed = {text.split(":")[0]
              for text, _ in out["plain_detail"]["failures"]}
    assert failed <= ({"fan@2"} if name == "realize-acc" else set())


def test_traced_counts_repeat(tiny):
    _, out = tiny
    first, second = out["traced"]["metrics"], out["again"]["metrics"]
    assert {k: first[k]["value"] for k in EXACT_COUNTS} == \
        {k: second[k]["value"] for k in EXACT_COUNTS}


def test_layer_self_times_add_up(tiny):
    _, out = tiny
    m = {k: v["value"] for k, v in out["traced"]["metrics"].items()}
    total = sum(v for k, v in m.items()
                if k.endswith(".self_s") and k.count(".") == 1)
    assert total + m["trace.unattributed_s"] == pytest.approx(
        m["trace.wall_s"], rel=1e-9, abs=1e-9)
    assert m["trace.unattributed_s"] < 0.2 * m["trace.wall_s"]


def test_order_seed_keeps_the_cases():
    names = {}
    for seed in (1, 2):
        argv = ["pass", "realize-acc", "20240811", "2", str(seed),
                str(time.monotonic_ns())]
        names[seed] = pass_output(argv)["names"]
    assert names[1] != names[2]
    assert sorted(names[1]) == sorted(names[2])


def test_wrong_fingerprint_counts_as_failed():
    wl = WORKLOADS["spectra-nondag"]
    # a quiver whose simples are all small, so no GL(4, 2) table is built
    inp = next(i for i in wl.cases(20240811, 300) if max(i[3]) <= 3)
    result = wl.run(inp)
    assert child.check_results(wl, [(inp, result)]) == []
    bad = inp[:2] + (inp[2] + 1, inp[3])
    failures = child.check_results(wl, [(bad, result)])
    assert [f[2] for f in failures] == [False]
    assert run.is_correct(failures) is False


def test_injected_exception_makes_run_incorrect(monkeypatch):
    wl = WORKLOADS["core-gf2"]
    real = wl.run

    def flaky(inp):
        if inp[0] == "case1":
            raise errors.BudgetExceeded("injected", atoms=1, cap=0)
        return real(inp)

    monkeypatch.setattr(wl, "run", flaky)
    out = pass_output(["pass", "core-gf2", "20240811", "3", "1",
                       str(time.monotonic_ns())])
    assert [f[:1] + f[2:] for f in out["failures"]] == [["case1", False]]
    assert run.is_correct(out["failures"]) is False


def test_only_the_fan_may_fail():
    wl = WORKLOADS["realize-acc"]
    fan = next(i for i in wl.fixed_cases() if i[0] == "fan@2")
    try:
        result = wl.run(fan)
    except Exception as exc:  # noqa: BLE001 - the fan fails today
        result = exc
    failures = child.check_results(wl, [(fan, result)])
    assert run.is_correct(failures) is True
    other = next(i for i in wl.fixed_cases() if i[0] != "fan@2")
    failures = child.check_results(
        wl, [(other, errors.BudgetExceeded("injected", atoms=1, cap=0))])
    assert len(failures) == 1 and run.is_correct(failures) is False


def test_tail_is_the_mean_of_the_ten_slowest():
    s = run.summary([float(i) for i in range(1, 41)])
    assert s["op_tail_ms"] == 35.5e3 and s["tail_percentile"] == 75
    assert s["op_p50_ms"] == 20.5e3
    assert run.summary([2.0, 1.0])["op_tail_ms"] == 1.5e3


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("realize-acc", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
