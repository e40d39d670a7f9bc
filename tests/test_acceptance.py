"""Acceptance criteria, one test per criterion, with stated time budgets.

Each test prints a single PASS/FAIL line (run pytest -s to watch).
Numeric budgets measure steady-state algorithmic cost, so the jitted
kernels are warmed once per session before any timing starts.
"""

import time

import pytest

from atomcat.atomspec import aass, spectrum
from atomcat.generators import gen_noatom, gen_realization_acc, \
    gen_realization_general, preset
from atomcat.harness import RunConfig, all_posets, run_suite
from atomcat.linmod import (FieldSpec, is_essential, module_of_quiver,
                            structure_report, submodule_lattice)
from atomcat.ordertop import canonical_form
from atomcat.predictor import (check_preset_claims, crosscheck,
                               predict_noatom, predict_preset,
                               predict_realization)
from atomcat.quiver import TruncationSpec, make_quiver
from poset_oracle import restrict

GF2 = FieldSpec(2)
CFG = RunConfig(seed=20240811)


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # compile/load the jitted kernels outside any timed section
    q = make_quiver(["v", "w"], ["c"], [("v", "w", "c")])
    submodule_lattice(module_of_quiver(q, GF2))
    spectrum(q, GF2)
    yield


def report(num, name, elapsed, budget=None):
    extra = f" [{elapsed:.2f}s" + (f" < {budget}s]" if budget else "]")
    print(f"\nACCEPTANCE {num:>2} {name}: PASS{extra}")


def test_criterion_01_chain_of_three():
    t0 = time.perf_counter()
    q = make_quiver(["v1", "v2", "v3"], ["c12", "c23"],
                    [("v1", "v2", "c12"), ("v2", "v3", "c23")])
    rep = spectrum(q, GF2)
    elapsed = time.perf_counter() - t0
    assert len(rep.atoms) == 1
    assert all(structure_report(a.representative).is_simple
               for a in rep.atoms)
    assert elapsed < 1.0
    report(1, "chain-of-3 has one simple-represented atom", elapsed, 1)


def test_criterion_02_loops():
    t0 = time.perf_counter()
    q = make_quiver(
        ["v1", "v2", "v3"], ["c1", "c2", "c3", "c12", "c23"],
        [("v1", "v1", "c1"), ("v2", "v2", "c2"), ("v3", "v3", "c3"),
         ("v1", "v2", "c12"), ("v2", "v3", "c23")])
    rep = spectrum(q, GF2)
    elapsed = time.perf_counter() - t0
    assert len(rep.atoms) == 3
    assert len(rep.opens.opens) == 1 << 3  # discrete
    assert rep.to_json()["order"] == []  # trivial order
    assert elapsed < 1.0
    report(2, "loops give three discrete atoms", elapsed, 1)


def test_criterion_03_infinite_chain_lattice():
    t0 = time.perf_counter()
    for d in range(2, 7):
        gen = preset("infinite-chain", d)
        m = module_of_quiver(gen.quiver, GF2)
        lat = submodule_lattice(m, CFG.budget)
        # closed form: zero plus the d coordinate tails
        expected = {()}
        import numpy as np
        for j in range(d):
            rows = np.zeros((d - j, d), dtype=np.int64)
            for r in range(d - j):
                rows[r, j + r] = 1
            basis, _ = m.ops.rref(m.ops.pack(rows, d), d)
            expected.add(basis)
        got = {s.basis for s in lat}
        assert got == expected, f"depth {d}"
        assert len(lat) == d + 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(3, "truncated chain lattices are exactly the tails", elapsed, 5)


def test_criterion_04_aass_vs_asupp():
    t0 = time.perf_counter()
    for d in (2, 3, 4):
        gen = preset("aass-vs-asupp", d)
        m = module_of_quiver(gen.quiver, GF2)
        brute_aass = aass(m, CFG.budget)
        assert brute_aass.labels() == ("S()",), f"depth {d}"
        socle = structure_report(m, CFG.budget).socle
        assert socle.dim == 1
        assert is_essential(socle, m, CFG.budget)
        sym = predict_preset("aass-vs-asupp", d)
        # map the brute class through the atom table: it witnesses beta
        diff = crosscheck(sym, gen, GF2, CFG.budget)
        assert set(diff.matched) == {"beta"}
        sym_asupp = set(sym.claims["asupp"])
        assert sym_asupp > set(diff.matched)  # alpha is extra, unseen
        assert {a.label: a.kind for a in sym.atoms}["alpha"] == "chain_limit"
    elapsed = time.perf_counter() - t0
    report(4, "associated atoms stay strictly inside the support", elapsed)


def test_criterion_05_realization_acc():
    t0 = time.perf_counter()
    posets = [p for n in (1, 2, 3, 4) for p in all_posets(n)]
    assert len(all_posets(4)) == 16
    for p in posets:
        res = predict_realization(p, "acc")
        witness_image = [res.witness[e] for e in p.elements]
        restricted = restrict(res.spectrum.order, witness_image)
        assert canonical_form(p)[0] == canonical_form(restricted)[0]
        for e1 in p.elements:
            for e2 in p.elements:
                assert p.leq(e1, e2) == res.spectrum.order.leq(
                    res.witness[e1], res.witness[e2])
        for depth in (2, 3):
            gen = gen_realization_acc(p, TruncationSpec(depth=depth))
            diff = crosscheck(res.pre_quotient, gen, GF2, CFG.budget)
            assert diff.unexpected == (), (p.elements, depth)
            assert diff.order_violations == (), (p.elements, depth)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(5, "acc realization matches all posets on <= 4 elements",
           elapsed, 30)


def test_criterion_06_realization_general():
    t0 = time.perf_counter()
    posets = [p for n in (1, 2, 3, 4) for p in all_posets(n)]
    for p in posets:
        res = predict_realization(p, "general")
        witness_image = [res.witness[e] for e in p.elements]
        restricted = restrict(res.spectrum.order, witness_image)
        assert canonical_form(p)[0] == canonical_form(restricted)[0]
        gen = gen_realization_general(
            p, TruncationSpec(depth=len(p.elements), ladder_range=(0, 0)))
        diff = crosscheck(res.pre_quotient, gen, GF2, CFG.budget)
        assert diff.unexpected == (), p.elements
        assert diff.order_violations == ()
    elapsed = time.perf_counter() - t0
    report(6, "general realization matches all posets on <= 4 elements",
           elapsed)


def test_criterion_07_no_atom():
    t0 = time.perf_counter()
    for d in (1, 2, 3):
        trunc = TruncationSpec(depth=d, ladder_range=(0, d))
        gen = gen_noatom(trunc)
        pred = predict_noatom(trunc)
        for field in (GF2, FieldSpec(3)):
            diff = crosscheck(pred.pre_spectrum, gen, field, CFG.budget)
            assert diff.matched and not diff.unexpected, (d, field.p)
        assert pred.post_quotient_empty
        assert len(gen.quiver.vertices) > 0  # pre-quotient module nonzero
        assert module_of_quiver(gen.quiver, GF2).dim > 0
    elapsed = time.perf_counter() - t0
    report(7, "atom-free construction absorbs every truncation atom",
           elapsed)


def test_criterion_08_invariant_suites():
    t0 = time.perf_counter()
    result = run_suite("core", CFG, count=200)
    elapsed = time.perf_counter() - t0
    assert result.passed, result.failures[:5]
    assert len(result.cases) >= 200
    assert elapsed < 120.0
    report(8, "200 random quivers satisfy every invariant", elapsed, 120)


def test_criterion_09_poset_roundtrip():
    t0 = time.perf_counter()
    result = run_suite("ordertop", CFG, count=100)
    elapsed = time.perf_counter() - t0
    assert result.passed, result.failures[:5]
    assert len(result.cases) == 100
    report(9, "poset/topology round trip on 100 seeded posets", elapsed)


def test_criterion_10_counterexample_presets():
    t0 = time.perf_counter()
    for name in ("no-minimal-atom", "no-dcc", "max-not-open",
                 "min-not-closed"):
        sym = predict_preset(name, 4)
        claims = check_preset_claims(name, sym, 4)
        assert claims and all(claims.values()), (name, claims)
        gen2 = preset(name, 2)
        diff = crosscheck(predict_preset(name, 2), gen2, GF2, CFG.budget)
        assert diff.unexpected == (), name
        assert diff.order_violations == (), name
    # the descending chain witnessed at depth 4 has length >= 4
    descent = predict_preset("no-dcc", 4).claims["infinite_descent"]
    assert len(descent) >= 4
    elapsed = time.perf_counter() - t0
    report(10, "counter-example spectra have the claimed pathologies",
           elapsed)
