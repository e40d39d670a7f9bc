"""Randomized invariant suites, worked-example reproduction, run config.

All randomness flows from one 64-bit seed through numpy's PCG64
generator (via numpy.random.default_rng), so suites reproduce across
platforms.  numpy is imported by `_rng` on the first draw, so importing
the package does not load it.  Each suite case is independent and pure;
cases run one after another in case order.
"""

import json
import os
from dataclasses import dataclass

from . import atomspec, generators, linmod, predictor, terms
from .atomspec import aass, asupp, is_monoform, is_uniform, spectrum
from .generators import substitute
from .linmod import (FieldSpec, is_essential, module_of_quiver,
                     quotient_module, structure_report, submodule_as_module,
                     submodule_lattice, subquotient)
from .ordertop import (alexandroff_of_poset, canonical_form, is_kolmogorov,
                       normalize_poset, poset_of_topology)
from .quiver import TruncationSpec, make_quiver, split_by_closed


@dataclass(frozen=True)
class RunConfig:
    p: int = 2
    budget: int = linmod.DEFAULT_BUDGET
    depth: int = 2
    seed: int = 0
    out: str = None

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        self.field  # FieldSpec validates p and budget

    @property
    def field(self):
        return FieldSpec(self.p, self.budget)


ENV_PREFIX = "ATOMCAT_"


def config_from_env(**overrides):
    """The RunConfig of the ATOMCAT_* environment values (FIELD, BUDGET,
    DEPTH, SEED, OUT), then of every override (p, budget, depth, seed,
    out) that is not None."""
    mapping = {"FIELD": ("p", int), "BUDGET": ("budget", int),
               "DEPTH": ("depth", int), "SEED": ("seed", int),
               "OUT": ("out", str)}
    updates = {}
    for env_key, (attr, conv) in mapping.items():
        raw = os.environ.get(ENV_PREFIX + env_key)
        if raw:
            updates[attr] = conv(raw)
    updates.update((k, v) for k, v in overrides.items() if v is not None)
    return RunConfig(**updates)


def _rng(seed):
    """numpy's PCG64 generator for `seed`; numpy loads on the first call."""
    import numpy as np
    return np.random.default_rng(seed)


def _case_seeds(seed, count):
    """The `count` case seeds a suite draws from its suite seed."""
    return [int(s) for s in _rng(seed).integers(0, 2 ** 63 - 1, size=count)]


def random_quiver(seed, max_vertices=5, max_colors=3, arrow_density=0.35):
    """Deterministic random quiver (PCG64 stream from the seed)."""
    if max_vertices < 1 or max_colors < 1:
        raise ValueError("bounds must be >= 1")
    rng = _rng(seed)
    nv = int(rng.integers(1, max_vertices + 1))
    nc = int(rng.integers(1, max_colors + 1))
    vertices = [f"v{i}" for i in range(nv)]
    colors = [f"c{i}" for i in range(nc)]
    arrows = []
    for v in vertices:
        for w in vertices:
            for c in colors:
                if rng.random() < arrow_density:
                    arrows.append((v, w, c))
    return make_quiver(vertices, colors, arrows)


def random_poset(seed, max_elements=5):
    rng = _rng(seed)
    n = int(rng.integers(1, max_elements + 1))
    elements = [f"p{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                pairs.append((elements[i], elements[j]))
    return normalize_poset(pairs, elements)


def all_posets(n):
    """One representative per isomorphism class of posets on n elements.

    Every finite poset admits a linear extension, so classes are covered
    by relations whose pairs only point up in index.  The scan keeps the
    first relation of each canonical form, in mask order.
    """
    elements = [f"e{i}" for i in range(n)]
    idx_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    reps = {}
    for mask in range(1 << len(idx_pairs)):
        pairs = [(elements[i], elements[j])
                 for b, (i, j) in enumerate(idx_pairs) if mask >> b & 1]
        poset = normalize_poset(pairs, elements)
        reps.setdefault(canonical_form(poset)[0], poset)
    return list(reps.values())


# -- invariant battery ---------------------------------------------------------

def _labels(atom_set):
    return set(atom_set.labels())


def _closed_subsets(quiver):
    """The target-closed vertex subsets, in mask order (bit i for
    vertex i): a mask is kept when no arrow leaves it, read off one
    successor mask per vertex."""
    vs = quiver.vertices
    index = {v: i for i, v in enumerate(vs)}
    succ = [0] * len(vs)
    for src, dst, _, _ in quiver.arrows:
        succ[index[src]] |= 1 << index[dst]
    for mask in range(1 << len(vs)):
        if not any(mask >> i & 1 and s & ~mask for i, s in enumerate(succ)):
            yield [v for i, v in enumerate(vs) if mask >> i & 1]


def check_quiver_invariants(quiver, cfg):
    """Run the full invariant battery on one quiver; returns a dict of
    check name -> bool."""
    field = cfg.field
    module = module_of_quiver(quiver, field)
    out = {}
    lat = submodule_lattice(module)
    members = {s.key(): s for s in lat}
    as_modules = {k: submodule_as_module(s) for k, s in members.items()}

    monoform = {}
    for k, mod in as_modules.items():
        monoform[k] = is_monoform(mod) if mod.dim else False

    # for each monoform member s and nonzero t strictly inside it:
    # heredity, t is monoform; exclusion, the class of s does not
    # support s/t
    ok, excl_ok = True, True
    for k, s in members.items():
        if not monoform[k]:
            continue
        h_label = atomspec.atom_of(as_modules[k]).label
        for k2, t in members.items():
            if 0 < t.dim < s.dim and s.contains(t):
                ok = ok and monoform[k2]
                layer = subquotient(module, t, s)
                if h_label in _labels(asupp(layer)):
                    excl_ok = False
    out["monoform_subobject_heredity"] = ok

    out["monoform_implies_uniform"] = all(
        is_uniform(as_modules[k])
        for k, flag in monoform.items() if flag)

    m_asupp = asupp(module)
    m_aass = aass(module)
    out["aass_subset_asupp"] = _labels(m_aass) <= _labels(m_asupp)
    out["aass_nonempty_on_nonzero"] = module.dim == 0 or len(m_aass) >= 1
    out["uniform_aass_singleton"] = all(
        len(aass(as_modules[k])) == 1
        for k, s in members.items()
        if s.dim > 0 and is_uniform(as_modules[k]))

    # short exact sequences from every lattice member
    add_ok, sandwich_ok = True, True
    for k, s in members.items():
        sub_mod = as_modules[k]
        quot = quotient_module(module, s)
        if _labels(asupp(sub_mod)) | _labels(asupp(quot)) != _labels(m_asupp):
            add_ok = False
        low = _labels(aass(sub_mod))
        high = low | _labels(aass(quot))
        mid = _labels(m_aass)
        if not (low <= mid <= high):
            sandwich_ok = False
    out["asupp_ses_additivity"] = add_ok
    out["aass_sandwich"] = sandwich_ok

    # splitting along target-closed vertex subsets
    split_ok = True
    for subset in _closed_subsets(quiver):
        sub_q, quot_q = split_by_closed(quiver, subset)
        union = (_labels(asupp(module_of_quiver(sub_q, field))) |
                 _labels(asupp(module_of_quiver(quot_q, field))))
        if union != _labels(m_asupp):
            split_ok = False
    out["asupp_split_by_closed"] = split_ok

    out["essential_aass_equality"] = all(
        _labels(aass(as_modules[k])) == _labels(m_aass)
        for k, s in members.items()
        if s.dim > 0 and is_essential(s, module))

    out["monoform_exclusion"] = excl_ok

    out["atom_reps_are_simple"] = all(
        a.representative.dim == 1
        or structure_report(a.representative).is_simple
        for a in spectrum(quiver, field).atoms)
    return out


def check_poset_roundtrip(poset):
    """Alexandroff then specialization is the identity; point flags
    match maximality/minimality."""
    topo = alexandroff_of_poset(poset)
    out = {
        "valid_topology": topo.validate(),
        "kolmogorov": is_kolmogorov(topo),
        "roundtrip_identity": poset_of_topology(topo).le == poset.le,
        "singleton_open_iff_maximal": all(
            topo.is_open([p]) == (p in poset.maximal_elements())
            for p in poset.elements),
        "singleton_closed_iff_minimal": all(
            topo.is_closed([p]) == (p in poset.minimal_elements())
            for p in poset.elements),
    }
    return out


@dataclass
class SuiteResult:
    name: str
    cases: tuple  # (case_id, {check: bool})
    failures: tuple

    @property
    def passed(self):
        return not self.failures

    def to_json(self):
        return {"suite": self.name,
                "cases": len(self.cases),
                "failures": [list(f) for f in self.failures]}

    def log_lines(self):
        lines = []
        for case_id, checks in self.cases:
            bad = [c for c, v in checks.items() if not v]
            status = "ok" if not bad else "FAIL " + ",".join(bad)
            lines.append(f"{self.name}[{case_id}]: {status}")
        lines.append(f"{self.name}: "
                     f"{'PASS' if self.passed else 'FAIL'} "
                     f"({len(self.cases)} cases)")
        return lines


SUITES = ("core", "ordertop", "presets")


def run_suite(name, cfg, count=None):
    """Run a named invariant suite; deterministic in (name, seed).
    count (default 200 core, 100 ordertop, all presets) must be >= 1."""
    if count is not None and count < 1:
        raise ValueError(f"count must be >= 1: {count}")
    if name == "core":
        def run_case(cs):
            q = random_quiver(cs, 5, 3, 0.35)
            return check_quiver_invariants(q, cfg)

        cases = [(cs, run_case(cs))
                 for cs in _case_seeds(cfg.seed, count or 200)]
    elif name == "ordertop":
        def run_case(cs):
            return check_poset_roundtrip(random_poset(cs, 5))

        cases = [(cs, run_case(cs))
                 for cs in _case_seeds(cfg.seed, count or 100)]
    elif name == "presets":
        names = terms.PRESET_NAMES[:count]

        def run_case(preset_name):
            gen = generators.preset(preset_name, max(cfg.depth, 2))
            sym = predictor.predict_preset(preset_name, max(cfg.depth, 2))
            diff = predictor.crosscheck(sym, gen, cfg.field)
            checks = {"no_unexpected": not diff.unexpected,
                      "no_order_violations": not diff.order_violations}
            checks.update(predictor.check_preset_claims(
                preset_name, predictor.predict_preset(preset_name,
                                                      max(cfg.depth, 4)),
                max(cfg.depth, 4)))
            return checks

        cases = [(nm, run_case(nm)) for nm in names]
    else:
        raise ValueError(f"unknown suite: {name} (have {SUITES})")

    failures = tuple((str(cid), check)
                     for cid, checks in cases
                     for check, v in checks.items() if not v)
    return SuiteResult(name, tuple(cases), failures)


# -- worked examples ------------------------------------------------------------

def worked_examples(cfg=RunConfig()):
    """Recompute the package's pinned examples; canonical dict for the
    golden-file comparison."""
    field = cfg.field
    out = {}

    chain3 = make_quiver(
        ["v1", "v2", "v3"], ["c12", "c23"],
        [("v1", "v2", "c12"), ("v2", "v3", "c23")])
    out["chain_of_three"] = {
        "atoms": sorted(spectrum(chain3, field).atoms.labels())}

    loops = make_quiver(
        ["v1", "v2", "v3"], ["c1", "c2", "c3", "c12", "c23"],
        [("v1", "v1", "c1"), ("v2", "v2", "c2"), ("v3", "v3", "c3"),
         ("v1", "v2", "c12"), ("v2", "v3", "c23")])
    out["loops_chain"] = {
        "atoms": sorted(spectrum(loops, field).atoms.labels())}

    gen = generators.preset("infinite-chain", 4)
    module = module_of_quiver(gen.quiver, field)
    lat = submodule_lattice(module)
    out["infinite_chain_depth4"] = {
        "lattice_dims": sorted(s.dim for s in lat),
        "is_chain": all(a.contains(b) or b.contains(a)
                        for a in lat for b in lat),
    }

    gen = generators.preset("aass-vs-asupp", 3)
    module = module_of_quiver(gen.quiver, field)
    socle = structure_report(module).socle
    out["aass_vs_asupp_depth3"] = {
        "aass": sorted(aass(module).labels()),
        "asupp": sorted(asupp(module).labels()),
        "socle_essential": is_essential(socle, module),
        "symbolic_asupp": sorted(
            predictor.predict_preset("aass-vs-asupp", 3).labels()),
    }

    skel = make_quiver(["w1", "w2", "w3", "w4"], ["(a)", "(b)"],
                       [("w1", "w2", "(a)"), ("w2", "w3", "(a)"),
                        ("w3", "w4", "(b)")])
    column = make_quiver(["v", "w"], ["c"], [("v", "w", "c")])
    subst = substitute(skel, {v: column for v in skel.vertices})
    out["substitution_columns"] = {
        "vertices": len(subst.vertices),
        "arrows": len(subst.arrows),
        "bundle_colors": sorted({color for _, _, color, _ in subst.arrows
                                 if color.startswith("!(")}),
    }

    poset = normalize_poset([("p0", "p1")], ["p0", "p1"])
    g = generators.gen_realization_acc(poset, TruncationSpec(depth=2))
    res = predictor.predict_realization(poset, "acc")
    diff = predictor.crosscheck(res.pre_quotient, g, field)
    out["realize_chain2_acc_depth2"] = diff.to_json()

    trunc = TruncationSpec(depth=2, ladder_range=(0, 2))
    gen = generators.gen_noatom(trunc)
    pred = predictor.predict_noatom(trunc)
    diff = predictor.crosscheck(pred.pre_spectrum, gen, field)
    out["no_atom_depth2"] = {
        "vertices": len(gen.quiver.vertices),
        "post_quotient_empty": pred.post_quotient_empty,
        "all_atoms_absorbed": bool(diff.matched) and not diff.unexpected,
    }

    sym = predictor.predict_preset("min-not-closed", 3)
    out["min_not_closed_depth3"] = {
        "claims": predictor.check_preset_claims("min-not-closed", sym, 3),
        "minimal_atoms": sorted(sym.order.minimal_elements()),
        "crosscheck_ok": predictor.crosscheck(
            sym, generators.preset("min-not-closed", 3), field).ok(),
    }
    return out


def canonical_json(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
