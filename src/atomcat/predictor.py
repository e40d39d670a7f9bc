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
of the absorbed atoms.  `window`, the one symbolic reader, reads a
construction term of `terms` (a preset, a poset realization or the
atom-free term), which `generators.truncate` reads as a truncation;
unlike `truncate` it refuses a cyclic skeleton.

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
from .errors import NotFinite, UnknownElement
from .linmod import DEFAULT_BUDGET
from .ordertop import Poset, normalize_poset
from .skeleton import _require_acyclic
from .terms import (_DESCENDING_WINDOW, Point, _loop_color, acc_term, fold,
                    general_term, noatom_term, noatom_window,
                    noetherian_family, preset_term, require_preset)


@dataclass(frozen=True)
class SymAtom:
    label: str
    kind: str  # "simple" | "chain_limit"


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


def _point_window(t):
    return ({t.label: SymAtom(t.label, "simple")}, (),
            {t.label: t.provenance}, ())


def _leaf_window(t):
    raise TypeError("a quiver leaf has no symbolic spectrum")


def _composite_window(t, values):
    _require_acyclic(len(t.blocks), t.arrows)
    parts = list({id(s): s for s in values}.values())  # distinct blocks
    families = [f for *_, fs in parts for f in fs]
    held = [set().union(*f["block_atom_sets"]) for f in families]
    families = [f for k, f in enumerate(families) if not any(
        g["limit"] == f["limit"] and held[k] <= held[m]
        and (held[k] < held[m] or m < k) for m, g in enumerate(families))]
    atoms, pairs, provenance = {}, set(), {}
    for s_atoms, *_ in reversed(parts):
        atoms.update(s_atoms)  # the first atom of a label stays
    for _, s_pairs, s_provenance, _ in parts:
        pairs.update(s_pairs)
        provenance.update(s_provenance)
    if t.limit is not None:
        if t.limit in atoms:
            raise ValueError("limit label collides with a block atom: "
                             f"{t.limit}")
        recurring = tuple(sorted(atoms if t.recurring is None
                                 else t.recurring))
        for b in recurring:
            if b not in atoms and b != t.limit:
                raise UnknownElement("pair references undeclared element",
                                     pair=[t.limit, b])
        families.append({"limit": t.limit, "block_atom_sets": tuple(
            tuple(sorted(s_atoms)) for s_atoms, *_ in parts),
            "recurring": recurring})
        atoms[t.limit] = SymAtom(t.limit, "chain_limit")
        pairs.update((t.limit, b) for b in recurring)
        provenance[t.limit] = t.provenance or "chain limit"
    return atoms, pairs, provenance, families


def window(term):
    """Symbolic spectrum of a construction term: one `fold` gathers its
    atoms, unclosed <= pairs, provenance and chain families, and one
    `_spectrum` closes the order.  A point is its simple atom.  A
    composite on an acyclic skeleton is the union of its distinct
    blocks' windows, atoms with equal labels one atom, less each chain
    family whose block atoms another family of its limit holds (a copy
    or a shallower truncation).  Its limit, if any, is added below its
    `recurring` atoms (None: all) with its family; it may not be a
    block atom, and a recurring label outside its blocks raises
    UnknownElement.  A quiver leaf is refused."""
    atoms, pairs, provenance, families = fold(
        term, _point_window, _leaf_window, _composite_window)
    return _spectrum(atoms.values(), pairs, provenance, families)


def _element_labels(union):
    """Poset element -> the atom its term in the union is labelled by."""
    return {p: t.label if isinstance(t, Point) else t.limit
            for p, t in zip(union.names, union.blocks)}


def predict_realization(poset, mode="acc"):
    """Symbolic spectrum of the realization of a finite poset.

    acc mode: the window of `acc_term`, the witness read from the
    element terms.  general mode: the window of `general_term` at depth
    1 over the integer 0, where gamma(p) lies below gamma(q) and
    delta(q) for every q > p, then the quotient absorbing the roots
    delta(p) of the non-maximal elements; the witness is gamma(p).
    """
    if not isinstance(poset, Poset):
        raise NotFinite("expected a finite poset value")
    if mode == "acc":
        term = acc_term(poset, 1)
        spec = window(term)
        return RealizationResult(spec, _element_labels(term), spec)
    if mode != "general":
        raise ValueError(f"unknown realization mode: {mode}")
    term = general_term(poset, 1, (0,))
    pre = window(term)
    roots = [t.blocks[0].label for t in term.blocks if not isinstance(t, Point)]
    return RealizationResult(quotient(pre, roots), _element_labels(term), pre)


@dataclass
class NoAtomPrediction:
    pre_spectrum: SymbolicSpectrum
    post_quotient_empty: bool
    nonzero_witness: str
    absorption: dict  # symbolic simple label -> noetherian family label


def predict_noatom(trunc):
    """Before the quotient: the window of the atom-free term (a loop
    simple per integer, absorbed by the family's loop simple of its loop
    color) and the designated noetherian chains, pairwise incomparable.
    The quotient absorbs everything: post-quotient spectrum empty, while
    the module of the first block stays nonzero."""
    ints = noatom_window(trunc)
    term = noatom_term(ints, trunc.depth)
    family = noetherian_family(ints, trunc.depth)
    loops = {f["loop_colors"][0]: f["label"] for f in family
             if f["kind"] == "loop_simple"}
    chains = {f["label"]: "designated noetherian chain" for f in family
              if f["kind"] == "chain"}
    sym = window(term)
    pre = _spectrum(sym.atoms + tuple(SymAtom(l, "chain_limit") for l in chains),
                    (), {**sym.provenance, **chains},
                    claims={"post_quotient_empty": True})
    return NoAtomPrediction(pre, True, "module of the first block", {
        n.blocks[0].label: loops[_loop_color(n.blocks[0].tag)]
        for n in term.blocks})


# -- presets -------------------------------------------------------------------

def predict_preset(name, depth):
    """Windowed symbolic spectrum of a named counter-example preset: the
    window of its term, with the claims the preset states."""
    term = preset_term(name, depth)
    sym = window(term)
    if name == "aass-vs-asupp":
        return _annotated(sym, claims={"aass": ["beta"],
                                       "asupp": ["alpha", "beta"]})
    if name in ("no-minimal-atom", "no-dcc"):
        labels = _element_labels(term)
        descent = [labels[p] for p in _DESCENDING_WINDOW]
        if name == "no-dcc":
            return _annotated(sym, claims={"infinite_descent": descent})
        return _annotated(sym, continued_below={descent[-1]},
                          claims={"no_minimal_atom": True})
    return sym


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


def _limit_in_closure(sym, atoms):
    """Some chain limit outside atoms has every basic neighborhood (a
    tail of its block family) meeting atoms, so lies in their closure."""
    return any(f["limit"] not in atoms and f["block_atom_sets"]
               and all(atoms.intersection(s) for s in f["block_atom_sets"])
               for f in sym.chain_families)


def check_max_not_open(sym):
    """The maximal atoms do not form an open set: a maximal chain limit
    lies in the closure of the non-maximal atoms."""
    return _limit_in_closure(
        sym, set(sym.labels()) - set(sym.order.maximal_elements()))


def check_min_not_closed(sym):
    """The minimal atoms do not form a closed set: a non-minimal chain
    limit lies in the closure of the minimal atoms."""
    return _limit_in_closure(sym, set(sym.order.minimal_elements()))


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


def crosscheck(sym, gen, field=FieldSpec(2), budget=DEFAULT_BUDGET):
    """Align the brute-force spectrum of a truncation with a symbolic
    window through the generator's atom table.  A brute atom no table
    entry credits to a window atom is unexpected.  The spectrum of a
    finite-dimensional module is discrete, so it witnesses no order
    pair and order_violations is empty.

    Why a truncation's atoms are atoms of the infinite construction:
    every construction term is acyclic apart from loops (its skeletons
    are paths, unions or pass `composite_term`'s acyclicity check, and
    its leaves are points), so each vertex of a truncation is a block
    of its own.  No path leaves a vertex and comes back, so the vertex
    spans a subquotient of the module of every deeper truncation, of
    which the truncation is a full subquiver, and so of the infinite
    object; and ASupp of a subquotient lies in ASupp of the object
    (Kanda 2012).  The tests hold every listed truncation to both facts.
    """
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

