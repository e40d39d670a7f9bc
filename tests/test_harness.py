"""Harness and CLI: determinism, suites, goldens, error reporting."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atomcat
from atomcat.atomspec import spectrum
from atomcat.cli import cli_dispatch
from atomcat.errors import NotTargetClosed
from atomcat.harness import (RunConfig, _closed_subsets, canonical_json,
                             check_poset_roundtrip, check_quiver_invariants,
                             config_from_env, random_poset, random_quiver,
                             run_suite, worked_examples)
from atomcat.linmod import FieldSpec
from atomcat.ordertop import poset_from_json, topology_from_json
from atomcat.quiver import (loop_stripped_topo_order, make_quiver,
                            quiver_from_json, split_by_closed)
from atomcat.terms import PRESET_NAMES
from strategies import mixed_quivers

GOLDEN = pathlib.Path(__file__).parent / "golden" / "examples.json"


class TestRandomQuiver:
    def test_deterministic(self):
        a = random_quiver(1, 3, 2, 0.5)
        b = random_quiver(1, 3, 2, 0.5)
        assert a == b

    def test_density_zero(self):
        q = random_quiver(9, 4, 2, 0.0)
        assert q.arrows == ()

    def test_validates(self):
        for seed in range(25):
            q = random_quiver(seed, 5, 3, 0.4)
            assert make_quiver(q.vertices, q.colors, q.arrows) == q

    def test_bounds_rejected(self):
        with pytest.raises(ValueError):
            random_quiver(0, 0, 1)


class TestSuites:
    def test_core_small_run_passes(self):
        res = run_suite("core", RunConfig(seed=42), count=8)
        assert res.passed, res.failures

    def test_core_deterministic(self):
        r1 = run_suite("core", RunConfig(seed=3), count=3)
        r2 = run_suite("core", RunConfig(seed=3), count=3)
        assert [c for c, _ in r1.cases] == [c for c, _ in r2.cases]

    def test_ordertop_run_passes(self):
        res = run_suite("ordertop", RunConfig(seed=11), count=25)
        assert res.passed, res.failures

    def test_presets_suite(self):
        res = run_suite("presets", RunConfig(seed=0, depth=2))
        assert res.passed, res.failures

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nope", RunConfig())

    def test_log_lines_shape(self):
        res = run_suite("ordertop", RunConfig(seed=1), count=2)
        lines = res.log_lines()
        assert lines[-1].startswith("ordertop: PASS")


class TestInvariantBattery:
    def test_single_quiver_all_checks_present(self):
        checks = check_quiver_invariants(random_quiver(7, 4, 2, 0.4),
                                         RunConfig())
        expected = {"monoform_subobject_heredity", "monoform_implies_uniform",
                    "aass_subset_asupp", "aass_nonempty_on_nonzero",
                    "uniform_aass_singleton", "asupp_ses_additivity",
                    "aass_sandwich", "asupp_split_by_closed",
                    "essential_aass_equality", "monoform_exclusion",
                    "atom_reps_are_simple"}
        assert set(checks) == expected
        assert all(checks.values())

    def test_poset_roundtrip_checks(self):
        checks = check_poset_roundtrip(random_poset(13, 5))
        assert all(checks.values())


class TestConfig:
    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("ATOMCAT_BUDGET", "1234")
        monkeypatch.setenv("ATOMCAT_SEED", "99")
        cfg = config_from_env()
        assert cfg.budget == 1234 and cfg.seed == 99

    def test_overrides_that_are_not_none_follow_the_env(self, monkeypatch):
        monkeypatch.setenv("ATOMCAT_BUDGET", "1234")
        monkeypatch.setenv("ATOMCAT_DEPTH", "3")
        cfg = config_from_env(p=None, budget=99, depth=None, seed=5)
        assert (cfg.p, cfg.budget, cfg.depth, cfg.seed) == (2, 99, 3, 5)
        assert cfg.field == FieldSpec(2, budget=99)

    def test_invalid_field_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(p=4)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(budget=0)


def test_run_config_budget_reaches_every_interned_module(monkeypatch):
    from atomcat import linmod
    monkeypatch.setattr(linmod, "_STORE", {})
    cfg = RunConfig(budget=4096)
    assert all(check_quiver_invariants(random_quiver(7, 4, 2, 0.4),
                                       cfg).values())
    worked_examples(cfg)
    budgets = [m.field.budget for entry in linmod._STORE.values()
               for key, m in entry.items() if key[0] == "module"]
    assert budgets and set(budgets) == {4096}


def test_examples_match_golden_bit_for_bit():
    got = canonical_json(worked_examples(RunConfig()))
    assert got == GOLDEN.read_text()


class TestCli:
    def write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_spectrum_roundtrip(self, tmp_path, capsys):
        qpath = self.write(tmp_path, "q.json", {
            "vertices": ["v1", "v2"], "colors": ["c"],
            "arrows": [{"src": "v1", "dst": "v2", "color": "c"}]})
        assert cli_dispatch(["spectrum", qpath]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [a["label"] for a in report["atoms"]] == ["S()"]

    def test_spectrum_writes_out_and_dot(self, tmp_path):
        qpath = self.write(tmp_path, "q.json", {
            "vertices": ["v"], "colors": ["c"],
            "arrows": [{"src": "v", "dst": "v", "color": "c"}]})
        out = str(tmp_path / "report.json")
        assert cli_dispatch(["spectrum", qpath, "--out", out]) == 0
        assert json.loads(open(out).read())["atoms"][0]["label"] == "S(c)"
        assert os.path.exists(out + ".dot")
        assert os.path.exists(out + ".quiver.dot")

    def test_realize_diamond(self, tmp_path, capsys):
        ppath = self.write(tmp_path, "p.json", {
            "elements": ["a", "b", "c", "d"],
            "le": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]})
        assert cli_dispatch(["realize", ppath, "--mode", "acc",
                             "--depth", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diff"]["unexpected"] == []
        assert payload["witness"]["d"] == "simple(d)"

    def test_realize_general_mode(self, tmp_path, capsys):
        ppath = self.write(tmp_path, "p.json", {
            "elements": ["a", "b"], "le": [["a", "b"]]})
        assert cli_dispatch(["realize", ppath, "--mode", "general",
                             "--depth", "1", "--window", "0", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["witness"] == {"a": "gamma(a)", "b": "gamma(b)"}
        assert payload["diff"]["unexpected"] == []
        assert payload["diff"]["order_violations"] == []
        assert [a["label"] for a in payload["symbolic"]["atoms"]] == [
            "gamma(a)", "gamma(b)"]

    def test_field_one_is_a_value_error(self, tmp_path, capsys):
        qpath = self.write(tmp_path, "q.json", {
            "vertices": ["v"], "colors": [], "arrows": []})
        assert cli_dispatch(["spectrum", qpath, "--field", "1"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "io_or_value_error", "context": {
            "detail": "field characteristic must be prime: 1"}}

    def test_preset_command(self, capsys):
        assert cli_dispatch(["preset", "infinite-chain", "--depth", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diff"]["unexpected"] == []
        assert payload["claims"] == {"limit_below_simple": True}

    def test_verify_command(self, capsys):
        assert cli_dispatch(["verify", "ordertop", "--count", "4",
                             "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "ordertop: PASS (4 cases)" in out

    def test_verify_writes_out(self, tmp_path, capsys):
        out = tmp_path / "suite.json"
        assert cli_dispatch(["verify", "ordertop", "--count", "3",
                             "--seed", "5", "--out", str(out)]) == 0
        assert "ordertop: PASS (3 cases)" in capsys.readouterr().out
        assert json.loads(out.read_text()) == {
            "suite": "ordertop", "cases": 3, "failures": []}

    def test_verify_presets_runs_the_first_count_names(self, capsys):
        assert cli_dispatch(["verify", "presets", "--count", "1"]) == 0
        assert "presets: PASS (1 cases)" in capsys.readouterr().out
        res = run_suite("presets", RunConfig(seed=0, depth=2), count=2)
        assert [cid for cid, _ in res.cases] == list(PRESET_NAMES[:2])

    def test_examples_command(self, capsys):
        assert cli_dispatch(["examples"]) == 0
        assert canonical_json(json.loads(capsys.readouterr().out)) == \
            GOLDEN.read_text()

    def test_convert_roundtrip(self, tmp_path, capsys):
        ppath = self.write(tmp_path, "p.json", {
            "elements": ["a", "b"], "le": [["a", "b"]]})
        assert cli_dispatch(["convert", ppath, "--to", "topology"]) == 0
        topo = json.loads(capsys.readouterr().out)
        tpath = self.write(tmp_path, "t.json", topo)
        assert cli_dispatch(["convert", tpath, "--to", "poset"]) == 0
        back = json.loads(capsys.readouterr().out)
        assert back["le"] == [["a", "b"]]

    def test_spectrum_beyond_the_listing_cap(self, tmp_path, capsys):
        vs = [f"v{i:02d}" for i in range(17)]
        qpath = self.write(tmp_path, "q.json", {
            "vertices": vs, "colors": [f"c{v}" for v in vs],
            "arrows": [{"src": v, "dst": v, "color": f"c{v}"} for v in vs]})
        assert cli_dispatch(["spectrum", qpath]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["atoms"]) == 17
        assert set(report) == {"p", "atoms", "order"}
        assert report["order"] == []

    def test_convert_large_chain_topology_to_poset(self, tmp_path, capsys):
        pts = [f"x{i:02d}" for i in range(20)]
        opens = [pts[i:] for i in range(21)]  # up-sets of the chain
        tpath = self.write(tmp_path, "t.json",
                           {"points": pts, "opens": opens})
        assert cli_dispatch(["convert", tpath, "--to", "poset"]) == 0
        back = json.loads(capsys.readouterr().out)
        assert len(back["le"]) == 20 * 19 // 2
        assert ["x00", "x19"] in back["le"]

    def test_convert_large_antichain_to_topology_refused(self, tmp_path,
                                                         capsys):
        ppath = self.write(tmp_path, "p.json", {
            "elements": [f"e{i:02d}" for i in range(17)], "le": []})
        assert cli_dispatch(["convert", ppath, "--to", "topology"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "budget_exceeded",
                       "context": {"points": 17, "cap": 16}}

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_verify_count_below_one_is_a_value_error(self, capsys, count):
        assert cli_dispatch(["verify", "ordertop", "--count", count]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io_or_value_error"
        assert "count" in err["context"]["detail"]

    def test_error_json_on_stderr(self, tmp_path, capsys):
        qpath = self.write(tmp_path, "bad.json", {
            "vertices": ["v"], "colors": [],
            "arrows": [{"src": "v", "dst": "v", "color": "c"}]})
        code = cli_dispatch(["spectrum", qpath])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "unknown_color"

    @pytest.mark.parametrize("value", ["1", 1.5])
    def test_spectrum_rejects_non_integer_arrow_value(self, tmp_path, capsys,
                                                      value):
        qpath = self.write(tmp_path, "bad.json", {
            "vertices": ["v", "w"], "colors": ["c"],
            "arrows": [{"src": "v", "dst": "w", "color": "c",
                        "value": value}]})
        assert cli_dispatch(["spectrum", qpath]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io_or_value_error"
        assert "['v', 'w', 'c']" in err["context"]["detail"]

    @pytest.mark.parametrize("command, data", [
        ("spectrum", {"vertices": ["a", 1], "colors": [], "arrows": []}),
        ("spectrum", {"vertices": ["a"], "colors": ["c", True],
                      "arrows": []}),
        ("spectrum", {"vertices": "ab", "colors": [], "arrows": []}),
        ("spectrum", {"vertices": ["a"], "colors": ["c"],
                      "arrows": [["a", "a", "c"]]}),
        ("spectrum", {"vertices": ["a"], "colors": ["c"],
                      "arrows": [{"src": ["a"], "dst": "a", "color": "c"}]}),
        ("spectrum", ["a"]),
        ("realize", {"elements": ["a", 1], "le": []}),
        ("realize", {"elements": "ab", "le": []}),
        ("realize", {"elements": ["a", "b"], "le": [["a", ["b"]]]}),
        ("realize", {"elements": ["a", "b"], "le": ["ab"]}),
        ("convert --to poset", {"points": ["a", "b"],
                                "opens": [[], "b", ["a", "b"]]}),
        ("convert --to poset", {"points": ["a", "b"], "opens": [[], 5]}),
        ("convert --to poset", {"points": ["a", "b"], "opens": "ab"}),
        ("convert --to poset", {"points": ["a", "b"], "opens": [[True]]}),
        ("spectrum", {"colors": [], "arrows": []}),
        ("spectrum", {"vertices": ["a"], "colors": ["c"]}),
        ("spectrum", {"vertices": ["a"], "colors": ["c"],
                      "arrows": [{"dst": "a", "color": "c"}]}),
        ("spectrum", {"vertices": ["a"], "colors": ["c"],
                      "arrows": [{"src": "a", "color": "c"}]}),
        ("spectrum", {"vertices": ["a"], "colors": ["c"],
                      "arrows": [{"src": "a", "dst": "a"}]}),
        ("realize", {"elements": ["a", "b"]}),
        ("convert --to topology", {"elements": ["a", "b"]}),
        ("convert --to poset", {"points": ["a", "b"]}),
    ], ids=["mixed-vertices", "bool-color", "string-vertices", "list-arrow",
            "list-src", "not-an-object", "mixed-elements", "string-elements",
            "list-in-pair", "string-pair", "string-open", "int-open",
            "string-opens", "bool-point", "no-vertices", "no-arrows",
            "no-src", "no-dst", "no-color", "no-le", "no-le-to-topology",
            "no-opens"])
    def test_malformed_json_is_a_value_error(self, tmp_path, capsys, command,
                                             data):
        path = self.write(tmp_path, "bad.json", data)
        assert cli_dispatch(command.split() + [path]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io_or_value_error"

    def test_integer_names_still_load(self, tmp_path, capsys):
        qpath = self.write(tmp_path, "q.json", {
            "vertices": [1, 2], "colors": [0],
            "arrows": [{"src": 1, "dst": 2, "color": 0}]})
        assert cli_dispatch(["spectrum", qpath]) == 0
        ppath = self.write(tmp_path, "p.json", {"elements": [1, 2],
                                                "le": [[1, 2]]})
        assert cli_dispatch(["realize", ppath, "--mode", "acc"]) == 0
        capsys.readouterr()

    def test_no_partial_output_on_error(self, tmp_path):
        qpath = self.write(tmp_path, "bad.json", {"vertices": []})
        out = str(tmp_path / "never.json")
        assert cli_dispatch(["spectrum", qpath, "--out", out]) == 1
        assert not os.path.exists(out)

    # a 3-cycle in color x at p = 2: once its eigenline (all ones) is
    # peeled, the 2-dim quotient has no eigenline and needs a 3-seed scan
    CYCLE3 = {"vertices": ["a", "b", "c"], "colors": ["x"],
              "arrows": [{"src": s, "dst": d, "color": "x"}
                         for s, d in ("ab", "bc", "ca")]}

    @pytest.mark.parametrize("flags, env", [(["--budget", "2"], None),
                                            ([], "2")])
    def test_budget_reaches_the_spectrum_scan(self, tmp_path, capsys,
                                              monkeypatch, flags, env):
        if env:
            monkeypatch.setenv("ATOMCAT_BUDGET", env)
        qpath = self.write(tmp_path, "q.json", self.CYCLE3)
        assert cli_dispatch(["spectrum", qpath, *flags]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "budget_exceeded",
            "context": {"seeds": 3, "budget": 2, "block": ["a", "b", "c"],
                        "dim": 3}}
        assert cli_dispatch(["spectrum", qpath, "--budget", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [a["label"] for a in report["atoms"]] == \
            ["S(x)", "S[2]cf56bbd64477"]

    @pytest.mark.parametrize("argv, context", [
        (["verify", "core", "--count", "3", "--budget", "4"],
         {"seeds": 31, "budget": 4}),
        (["examples", "--budget", "3"], {"seeds": 15, "budget": 3})])
    def test_budget_reaches_suites_and_examples(self, capsys, argv,
                                                context):
        assert cli_dispatch(argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "budget_exceeded", "context": context}

    def test_bad_env_value_is_a_value_error(self, capsys, monkeypatch):
        monkeypatch.setenv("ATOMCAT_BUDGET", "many")
        assert cli_dispatch(["examples"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io_or_value_error"
        assert "many" in err["context"]["detail"]

    def test_env_flag_equivalence(self, tmp_path, capsys, monkeypatch):
        qpath = self.write(tmp_path, "q.json", {
            "vertices": ["v"], "colors": [], "arrows": []})
        monkeypatch.setenv("ATOMCAT_FIELD", "3")
        assert cli_dispatch(["spectrum", qpath]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("reader, data, named", [
    (quiver_from_json, {"vertices": ["a"], "colors": ["c"]}, "'arrows'"),
    (quiver_from_json, {"vertices": ["a"], "colors": ["c"],
                        "arrows": [{"src": "a", "dst": "a"}]},
     r"arrow \{'src': 'a', 'dst': 'a'\} has no 'color'"),
    (poset_from_json, {"elements": ["a"]}, "'le'"),
    (topology_from_json, {"points": ["a"]}, "'opens'"),
], ids=["no-arrows", "no-color", "no-le", "no-opens"])
def test_json_readers_name_a_missing_field(reader, data, named):
    # a ValueError that names the field or the arrow, not a KeyError
    with pytest.raises(ValueError, match=named):
        reader(data)


def test_numpy_loads_only_to_draw_case_streams(tmp_path):
    """Importing the package and the CLI, and a spectrum run, leave numpy
    unloaded; the first seeded draw loads it."""
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps({
        "vertices": ["a", "b"], "colors": ["x"],
        "arrows": [{"src": "a", "dst": "b", "color": "x"}]}))
    code = (
        "import sys\n"
        "import atomcat, atomcat.cli\n"
        "from atomcat import harness\n"
        f"assert atomcat.cli.cli_dispatch(['spectrum', {str(qpath)!r}]) == 0\n"
        "assert 'numpy' not in sys.modules, 'loaded before any draw'\n"
        "harness.random_quiver(1)\n"
        "assert 'numpy' in sys.modules\n")
    src = pathlib.Path(atomcat.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_core_battery_at_p3_small_quivers():
    """Every invariant holds at an odd prime on quivers with at most four
    vertices, including non-DAG ones whose simples go through the
    spin-up canonical form."""
    cfg = RunConfig(p=3)
    seeds = np.random.default_rng(7).integers(0, 2 ** 63 - 1, size=30)
    non_dag, wide = 0, 0
    for s in seeds:
        q = random_quiver(int(s), 4, 3, 0.35)
        checks = check_quiver_invariants(q, cfg)
        assert all(checks.values()), (int(s), checks)
        if loop_stripped_topo_order(q) is None:
            non_dag += 1
            wide += any(a.representative.dim > 1
                        for a in spectrum(q, FieldSpec(3)).atoms)
    assert non_dag and wide


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_property_battery_splits_exactly_where_split_by_closed_accepts(data):
    """The battery's closure masks keep exactly the vertex subsets, in
    mask order, that `split_by_closed` does not refuse."""
    p = data.draw(st.sampled_from((2, 3)))
    q = data.draw(mixed_quivers(p, 5))
    accepted = []
    for mask in range(1 << len(q.vertices)):
        subset = [v for i, v in enumerate(q.vertices) if mask >> i & 1]
        try:
            split_by_closed(q, subset)
        except NotTargetClosed:
            continue
        accepted.append(subset)
    assert list(_closed_subsets(q)) == accepted
