"""Symbolic spectra for the infinite constructions, and crosschecks.

A SymbolicSpectrum is a finite window onto the atom spectrum of an
infinite construction: atoms with kinds (simple versus chain limit),
the specialization order on the window, and enough structure to
evaluate topology claims that no finite window can state directly:

* chain_families record, per chain construction, the limit atom, the
  atom sets of the materialized blocks, and which atoms recur in
  infinitely many blocks.  The order rule is uniform: the limit sits
  strictly below exactly the recurring atoms.
* continued_below marks window atoms that have further atoms below
  them in the full object (pure truncation artifacts).

Every spectrum is built by `_spectrum`; a post-quotient spectrum is
`quotient(pre, absorbed)`, the pre-quotient one minus the up-closure
of the absorbed atoms.

Brute-force agreement: `crosscheck` computes the honest spectrum of a
truncated quiver and aligns it with the window through the generator's
atom table.  Chain-limit atoms are invisible at any finite truncation
(finite length forces discreteness), so they land in `missing`; any
brute atom with no symbolic counterpart is a violation.  Every
construction goes through it, the atom-free one included: that
truncation passes when each brute atom is a loop simple of the window.
"""

from dataclasses import dataclass, field

from .atomspec import FieldSpec, _line_label, spectrum
from .errors import NotFinite
from .generators import _descending_window_poset, gen_noatom, require_preset
from .linmod import DEFAULT_BUDGET
from .ordertop import Poset, normalize_poset, poset_invariants


@dataclass(frozen=True)
class SymAtom:
    label: str
    kind: str  # "simple" | "chain_limit" | "block"


@dataclass
class SymbolicSpectrum:
    atoms: tuple
    order: Poset
    provenance: dict
    chain_families: tuple = ()
    continued_below: frozenset = frozenset()
    claims: dict = field(default_factory=dict)

    def labels(self):
        return tuple(a.label for a in self.atoms)

    def kind_of(self, label):
        for a in self.atoms:
            if a.label == label:
                return a.kind
        return None

    def to_json(self):
        return {"atoms": [{"label": a.label, "kind": a.kind}
                          for a in self.atoms],
                "order": [[a, b] for (a, b) in sorted(self.order.le)
                          if a != b],
                "provenance": dict(self.provenance),
                "chain_families": [
                    {"limit": f["limit"],
                     "block_atom_sets": [list(s)
                                         for s in f["block_atom_sets"]],
                     "recurring": list(f["recurring"])}
                    for f in self.chain_families],
                "continued_below": sorted(self.continued_below),
                "claims": {k: v for k, v in self.claims.items()}}


def _spectrum(atoms, pairs, provenance, chain_families=(),
              continued_below=(), claims=()):
    """The one way a SymbolicSpectrum is built: the first atom of each
    label, sorted by label, ordered by the closure of the <= pairs.
    provenance keeps its given order, which `to_json()` writes."""
    first = {}
    for a in atoms:
        first.setdefault(a.label, a)
    labels = sorted(first)
    return SymbolicSpectrum(tuple(first[l] for l in labels),
                            normalize_poset(pairs, labels), dict(provenance),
                            tuple(chain_families), frozenset(continued_below),
                            dict(claims))


def symbolic_from_json(data):
    return _spectrum(
        (SymAtom(a["label"], a["kind"]) for a in data["atoms"]),
        [tuple(p) for p in data["order"]], data.get("provenance", {}),
        ({"limit": f["limit"],
          "block_atom_sets": tuple(tuple(s) for s in f["block_atom_sets"]),
          "recurring": tuple(f["recurring"])}
         for f in data.get("chain_families", ())),
        data.get("continued_below", ()), data.get("claims", {}))


def atom_spectrum_point(label, *, provenance=""):
    return _spectrum((SymAtom(label, "simple"),), (), {label: provenance})


def predict_disjoint_union(specs):
    """Union of the component spectra; atoms with equal labels are the
    same atom (labels encode the defining colors, so equal blocks with
    shared colors merge and disjointly colored ones stay apart)."""
    return _spectrum([a for s in specs for a in s.atoms],
                     [pair for s in specs for pair in s.order.le],
                     {k: v for s in specs for k, v in s.provenance.items()},
                     [f for s in specs for f in s.chain_families],
                     [l for s in specs for l in s.continued_below],
                     {k: v for s in specs for k, v in s.claims.items()})


def predict_chain(blocks, limit_label, cycle_start=0, provenance=""):
    """Spectrum of an infinite chain of blocks joined by fresh bundles.

    blocks are the block spectra in window order.  A chain-limit atom is
    added below exactly the recurring atoms, those of blocks[cycle_start:],
    the repeating part.  cycle_start = len(blocks) expresses a window of
    pairwise distinct blocks none of which repeats.
    """
    merged = predict_disjoint_union(blocks)
    if limit_label in merged.labels():
        raise ValueError(f"limit label collides with a block atom: {limit_label}")
    recurring = sorted({l for b in blocks[cycle_start:] for l in b.labels()})
    family = {"limit": limit_label,
              "block_atom_sets": tuple(tuple(sorted(b.labels()))
                                       for b in blocks),
              "recurring": tuple(recurring)}
    return _spectrum(merged.atoms + (SymAtom(limit_label, "chain_limit"),),
                     list(merged.order.le)
                     + [(limit_label, b) for b in recurring],
                     {**merged.provenance,
                      limit_label: provenance or "chain limit"},
                     merged.chain_families + (family,),
                     merged.continued_below, merged.claims)


def quotient(sym, absorbed):
    """Spectrum after the quotient by the localizing subcategory whose
    atom support is the up-closure of `absorbed`: ASpec(A/X) = ASpec A
    minus ASupp X (Kanda, Adv. Math. 2012).  The order is restricted,
    provenance comes in label order; families and claims are dropped."""
    gone = {q for a in absorbed for q in sym.order.up_set(a)}
    kept = [a for a in sym.atoms if a.label not in gone]
    return _spectrum(kept, [(x, y) for (x, y) in sym.order.le
                            if x not in gone and y not in gone],
                     {a.label: sym.provenance[a.label] for a in kept})


@dataclass
class RealizationResult:
    spectrum: SymbolicSpectrum      # the realized spectrum (post-quotient)
    witness: dict                   # poset element -> atom label
    pre_quotient: SymbolicSpectrum  # what a truncation gets compared to


def _acc_spectrum(poset, inv, p, memo):
    if p in memo:
        return memo[p]
    if p in set(inv.maximal):
        out = atom_spectrum_point(f"simple({p})",
                                  provenance=f"loop point of {p}")
    else:
        blocks = [_acc_spectrum(poset, inv, q, memo)
                  for q in sorted(inv.j_sets[p])]
        out = predict_chain(blocks, f"chain({p})",
                            provenance=f"chain over J({p})")
    memo[p] = out
    return out


def predict_realization(poset, mode="acc"):
    """Symbolic spectrum of the realization of a finite poset.

    acc mode: recursive chain-over-J(p) blocks, disjoint union over the
    poset.  general mode: one chain-limit atom per element plus one
    simple atom per non-maximal element, with the maximal elements'
    limits identified with their loop simples, then the quotient
    absorbing the non-maximal simples.
    """
    if not isinstance(poset, Poset):
        raise NotFinite("expected a finite poset value")
    inv = poset_invariants(poset)
    if mode == "acc":
        memo = {}
        spec = predict_disjoint_union(
            [_acc_spectrum(poset, inv, p, memo) for p in poset.elements])
        maximal = set(inv.maximal)
        witness = {p: (f"simple({p})" if p in maximal else f"chain({p})")
                   for p in poset.elements}
        return RealizationResult(spec, witness, spec)
    if mode != "general":
        raise ValueError(f"unknown realization mode: {mode}")

    maximal = set(inv.maximal)
    atoms = []
    pairs = []
    prov = {}
    for p in poset.elements:
        g = f"gamma({p})"
        atoms.append(SymAtom(g, "simple" if p in maximal else "chain_limit"))
        prov[g] = f"block limit of {p}" + \
            (" (= its loop simple)" if p in maximal else "")
        if p not in maximal:
            d = f"delta({p})"
            atoms.append(SymAtom(d, "simple"))
            prov[d] = f"loop simple of {p}"
    for p in poset.elements:
        for q in poset.elements:
            if poset.leq(p, q):
                pairs.append((f"gamma({p})", f"gamma({q})"))
            if poset.lt(p, q) and q not in maximal:
                pairs.append((f"gamma({p})", f"delta({q})"))
    pre = _spectrum(atoms, pairs, prov)
    post = quotient(pre, [f"delta({p})" for p in poset.elements
                          if p not in maximal])
    witness = {p: f"gamma({p})" for p in poset.elements}
    return RealizationResult(post, witness, pre)


@dataclass
class NoAtomPrediction:
    pre_spectrum: SymbolicSpectrum
    post_quotient_empty: bool
    nonzero_witness: str
    absorption: dict  # symbolic simple label -> noetherian family label


def predict_noatom(trunc):
    """Before the quotient: loop simples per window integer plus the
    designated noetherian chain atoms, pairwise incomparable.  The
    quotient absorbs everything: post-quotient spectrum empty, while
    the module of the first block stays nonzero."""
    gen = gen_noatom(trunc)
    atoms = []
    prov = {}
    absorption = {}
    for key, entry in gen.atom_table.items():
        atoms.append(SymAtom(key, "simple"))
        prov[key] = "loop simple " + ",".join(entry["loop_colors"])
        idx = key[key.index("(") + 1:-1]
        absorption[key] = f"noeth-loop({idx})"
    for fam in gen.noetherian_family or ():
        if fam["kind"] == "chain":
            lbl = fam["label"]
            atoms.append(SymAtom(lbl, "chain_limit"))
            prov[lbl] = "designated noetherian chain"
    pre = _spectrum(atoms, (), prov, claims={"post_quotient_empty": True})
    return NoAtomPrediction(pre, True, "module of the first block",
                            absorption)


# -- presets -------------------------------------------------------------------

def predict_preset(name, depth):
    """Windowed symbolic spectrum of a named counter-example preset."""
    require_preset(name, depth)
    if name == "infinite-chain":
        delta = atom_spectrum_point("delta", provenance="point class")
        return predict_chain([delta], "gamma", provenance="chain of points")
    if name == "aass-vs-asupp":
        beta = atom_spectrum_point("beta", provenance="point class")
        inner = predict_chain([beta], "alpha",
                              provenance="infinite chain of points")
        return _annotated(inner, claims={"aass": ["beta"],
                                         "asupp": ["alpha", "beta"]})
    if name == "no-minimal-atom":
        window = max(depth, 2)
        res = predict_realization(_descending_window_poset(window), "acc")
        bottom = res.witness[f"p{window - 1}"]
        return _annotated(res.spectrum, continued_below={bottom},
                          claims={"no_minimal_atom": True})
    if name == "no-dcc":
        window = max(depth, 2)
        poset = _descending_window_poset(window, with_bottom=True)
        res = predict_realization(poset, "acc")
        descent = [res.witness[f"p{i}"] for i in range(window)]
        return _annotated(res.spectrum, claims={"infinite_descent": descent})
    if name == "max-not-open":
        blocks = [predict_chain([atom_spectrum_point(f"delta({i})")],
                                f"gamma({i})")
                  for i in range(depth)]
        return predict_chain(blocks, "gamma", cycle_start=len(blocks),
                             provenance="chain of pairwise distinct blocks")
    # min-not-closed: shifted copies of one chain of distinct loop points:
    # the inner limit gamma' is the only atom recurring in every outer
    # block, each delta eventually drops out of the shifted windows
    delta_labels = [f"delta({i})" for i in range(2 * depth - 1)]
    atoms = [SymAtom("gamma", "chain_limit"), SymAtom("gamma'", "chain_limit")]
    atoms.extend(SymAtom(d, "simple") for d in delta_labels)
    prov = {"gamma": "outer chain limit over shifted copies",
            "gamma'": "inner chain limit, shared by all shifts"}
    prov.update({d: "loop simple" for d in delta_labels})
    inner_family = {"limit": "gamma'",
                    "block_atom_sets": tuple((d,) for d in delta_labels),
                    "recurring": ()}
    outer_family = {"limit": "gamma",
                    "block_atom_sets": tuple(
                        tuple(sorted(["gamma'"] + delta_labels[j:j + depth]))
                        for j in range(depth)),
                    "recurring": ("gamma'",)}
    return _spectrum(atoms, [("gamma", "gamma'")], prov,
                     (inner_family, outer_family))


def _annotated(sym, continued_below=(), claims=()):
    """sym with more continued-below atoms and claims."""
    return _spectrum(sym.atoms, sym.order.le, sym.provenance,
                     sym.chain_families,
                     sym.continued_below | frozenset(continued_below),
                     {**sym.claims, **dict(claims)})


# -- claim checkers ------------------------------------------------------------

def check_no_minimal_atom(sym):
    """Every window-minimal atom is a truncation artifact that the full
    object continues below."""
    minimal = set(sym.order.minimal_elements())
    return bool(minimal) and minimal <= set(sym.continued_below)


MIN_DESCENT = 4  # atoms a window's descent needs to witness no-dcc


def check_infinite_descent(sym):
    """The claimed family is a strictly descending chain in the window
    of at least MIN_DESCENT atoms, long enough to witness the failure
    of the descending chain condition."""
    descent = sym.claims.get("infinite_descent", [])
    if len(descent) < MIN_DESCENT:
        return False
    return all(sym.order.lt(descent[i + 1], descent[i])
               for i in range(len(descent) - 1))


def check_max_not_open(sym):
    """The maximal atoms do not form an open set: the outermost chain
    limit is maximal, but each of its basic neighborhoods (tails of the
    block family) contains a non-maximal atom."""
    maximal = set(sym.order.maximal_elements())
    for fam in sym.chain_families:
        if fam["limit"] not in maximal:
            continue
        sets = fam["block_atom_sets"]
        if sets and all(any(a not in maximal for a in s) for s in sets):
            return True
    return False


def check_min_not_closed(sym):
    """The minimal atoms do not form a closed set: some non-minimal
    chain limit has every basic neighborhood meeting the minimal set,
    hence lies in its closure."""
    minimal = set(sym.order.minimal_elements())
    for fam in sym.chain_families:
        limit = fam["limit"]
        if limit in minimal:
            continue
        sets = fam["block_atom_sets"]
        if sets and all(any(a in minimal for a in s) for s in sets):
            return True
    return False


def check_preset_claims(name, sym, depth):
    """Evaluate the structural claims a preset's window must witness."""
    require_preset(name, depth)
    if name == "no-minimal-atom":
        return {"no_minimal_atom": check_no_minimal_atom(sym)}
    if name == "no-dcc":
        return {"no_dcc": check_infinite_descent(sym)}
    if name == "max-not-open":
        return {"max_not_open": check_max_not_open(sym)}
    if name == "min-not-closed":
        return {"min_not_closed": check_min_not_closed(sym)}
    if name == "aass-vs-asupp":
        aass_l = set(sym.claims.get("aass", ()))
        asupp_l = set(sym.claims.get("asupp", ()))
        return {"aass_strictly_inside_asupp": aass_l < asupp_l,
                "two_atom_chain": sym.order.lt("alpha", "beta")}
    return {"limit_below_simple": sym.order.lt("gamma", "delta")}


# -- brute-force crosscheck ------------------------------------------------------

@dataclass
class DiffReport:
    matched: tuple
    missing_in_brute: tuple
    unexpected: tuple
    order_violations: tuple

    def ok(self):
        return not self.unexpected and not self.order_violations

    def to_json(self):
        return {"matched": list(self.matched),
                "missing_in_brute": list(self.missing_in_brute),
                "unexpected": list(self.unexpected),
                "order_violations": [list(v) for v in self.order_violations]}


def diff_from_json(data):
    return DiffReport(tuple(data["matched"]),
                      tuple(data["missing_in_brute"]),
                      tuple(data["unexpected"]),
                      tuple(tuple(v) for v in data["order_violations"]))


def crosscheck(sym, gen, field=FieldSpec(2), budget=DEFAULT_BUDGET):
    """Align the brute-force spectrum of a truncation with a symbolic
    window through the generator's atom table.  A brute atom no table
    entry credits to a window atom is unexpected.  The spectrum of a
    finite-dimensional module is discrete, so it witnesses no order
    pair and order_violations is empty."""
    report = spectrum(gen.quiver, field, budget)
    credit = {}  # brute label -> symbolic labels it witnesses
    for key, entry in gen.atom_table.items():
        if entry.get("kind") != "simple":
            continue
        lbl = _line_label(dict.fromkeys(entry["loop_colors"], 1))
        credit.setdefault(lbl, set()).add(entry.get("atom_label", key))

    sym_labels = set(sym.labels())
    matched = set()
    unexpected = []
    for b in report.atoms.labels():
        hits = credit.get(b, set()) & sym_labels
        if hits:
            matched |= hits
        else:
            unexpected.append(b)
    missing = sorted(sym_labels - matched)
    return DiffReport(tuple(sorted(matched)), tuple(missing),
                      tuple(unexpected), ())

