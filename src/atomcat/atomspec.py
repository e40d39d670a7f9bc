"""Atoms: equivalence classes of monoform modules, and their spectra.

A module H is monoform when no nonzero submodule of H is isomorphic to
a submodule of a proper quotient H/L; two monoform modules are
equivalent when they share a nonzero submodule (up to isomorphism).
On finite-dimensional modules the following reductions hold and drive
every implementation here; the exhaustive nested-pair definitions stay
available in the test suite as oracles.

* A common nonzero subobject of M and N exists iff some minimal
  submodule of M is isomorphic to a minimal submodule of N: any common
  subobject contains a simple one, and a simple common subobject is a
  minimal submodule on both sides.
* A uniform module has exactly one minimal submodule (its socle); a
  monoform module is uniform, and its class equals the class of its
  socle, so every atom of a finite-dimensional module is represented
  by a simple module.
* The atom support of a finite-length module is exactly the set of
  classes of its composition factors: simples are monoform
  subquotients, and conversely the socle of any monoform subquotient
  is a simple subquotient, hence a composition factor.
* Between simple modules any nonzero homomorphism is an isomorphism
  (Schur's lemma), so simples are compared by one hom-space nullspace,
  and atoms are named by an exact canonical form of a simple module
  (`canonical_simple_form`): equal labels mean isomorphic simples, in
  every dimension.
"""

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from . import linmod
from .errors import (BudgetExceeded, LabelCollision, NotMonoform, UnknownAtom,
                     ZeroModule)
from .linmod import (FdModule, FieldSpec, composition_factors, hom_basis,
                     minimal_submodules, module_of_quiver, quotient_module,
                     submodule_as_module, submodule_lattice)
from .ordertop import FiniteTopology, Poset, poset_of_topology
from .quiver import loop_stripped_topo_order

# explicit open-set families get unwieldy fast; 2^MAX_TOPOLOGY_ATOMS masks
MAX_TOPOLOGY_ATOMS = 16


# -- canonical representatives and labels ------------------------------------

def _spin_up(seed, color_cols, k, p):
    """Actions of the module in the standard basis spun up from `seed`.

    Basis vectors are taken in order and, for each, the colors in sorted
    order; an image joins the basis when it is independent of the
    vectors kept so far.  Images are reduced against a semi-echelon
    copy of the basis that tracks coordinates, so the coordinates of
    the image of basis vector i under color c are row i of c's action
    in the new basis.  Returns those rows, basis-vector-major:
    form[i][j] is row i of the j-th color's matrix.
    """
    basis, echelon = [], []  # echelon rows: (pivot, row, coordinates)

    def coords_of(w):
        res, coords = list(w), [0] * k
        for piv, row, comb in echelon:
            a = res[piv]
            if a:
                res = [(x - a * y) % p for x, y in zip(res, row)]
                coords = [(x + a * y) % p for x, y in zip(coords, comb)]
        piv = next((j for j, x in enumerate(res) if x), None)
        if piv is None:
            return tuple(coords)
        # res = b_m - sum(coords_t b_t) for the new basis vector b_m = w
        m = len(basis)
        basis.append(w)
        inv = pow(res[piv], p - 2, p)
        comb = [(-x) % p for x in coords]
        comb[m] = 1
        echelon.append((piv, [x * inv % p for x in res],
                        [x * inv % p for x in comb]))
        return tuple(int(j == m) for j in range(k))

    coords_of(seed)
    form = []
    for b in basis:  # also visits the vectors appended on the way
        form.append(tuple(
            coords_of([sum(x * y for x, y in zip(b, col)) % p for col in cols])
            for cols in color_cols))
    assert len(basis) == k, "a simple module is spun up by every seed"
    return tuple(form)


def canonical_simple_form(simple):
    """Basis-independent canonical copy of a simple module, plus label.

    Parker's standard basis (the Meat-Axe): every nonzero seed vector
    of a simple module spins up to a basis, and writing the actions in
    that basis gives one candidate form.  An isomorphism carries seeds
    to seeds and candidate forms to equal candidate forms, so the
    lexicographically least form over all seeds is exact for every
    dimension and prime: two simples get the same representative, and
    the same label, exactly when they are isomorphic.  Colors that act
    as zero are left out.  Seeds are taken with leading coordinate 1,
    since a scalar multiple of a seed spins up to the same form, so the
    cost is (p^k - 1)/(p - 1) spin-ups.  The result is kept in the
    `linmod` structure store under the simple's key.
    """
    stored = simple.stored()
    if "canon" not in stored:
        stored["canon"] = _canonical_form(simple)
    return stored["canon"]


def _canonical_form(simple):
    p = simple.field.p
    k = simple.dim
    ops = simple.ops
    dense = {c: np.array(ops.unpack(simple.actions[c], k)[:k],
                         dtype=np.int64) % p
             for c in simple.colors}
    colors = tuple(c for c in sorted(dense) if dense[c].any())
    color_cols = [dense[c].T.tolist() for c in colors]
    best = None
    for seed in itertools.product(range(p), repeat=k):
        if next((x for x in seed if x), 0) != 1:
            continue
        form = _spin_up(seed, color_cols, k, p)
        if best is None or form < best:
            best = form
    mats = {c: np.array([best[i][j] for i in range(k)], dtype=np.int64)
            for j, c in enumerate(colors)}
    rep = FdModule(simple.field, k, tuple(f"s{i}" for i in range(k)),
                   {c: ops.pack(m, k) for c, m in mats.items()})
    if k == 1:
        parts = [c if m[0, 0] == 1 else f"{c}={m[0, 0]}"
                 for c, m in mats.items()]
        label = "S(" + ",".join(parts) + ")"
    else:
        digest = hashlib.blake2b(repr((colors, best)).encode(),
                                 digest_size=6).hexdigest()
        label = f"S[{k}]{digest}"
    return label, rep


@dataclass(frozen=True)
class Atom:
    """Equivalence class of monoform modules, named by a canonical
    simple representative."""

    label: str
    representative: FdModule
    source: tuple = ()

    def to_json(self):
        return {"label": self.label,
                "dim": self.representative.dim,
                "actions": self.representative.dense_actions(),
                "source": list(self.source)}


@dataclass(frozen=True)
class AtomSet:
    atoms: tuple  # pairwise non-equivalent, sorted by label

    def labels(self):
        return tuple(a.label for a in self.atoms)

    def __len__(self):
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)


def _dedupe_simples(simples_with_sources):
    """Partition simple modules into isomorphism classes -> AtomSet.

    Classes are keyed by the canonical form itself, which is exact; a
    label shared by two different forms is a digest collision and
    raises rather than merging two classes.
    """
    classes = {}
    for simple, src in simples_with_sources:
        label, rep = canonical_simple_form(simple)
        _, _, sources = classes.setdefault(rep.key(), (label, rep, set()))
        if src is not None:
            sources.add(src)
    atoms = {}
    for label, rep, sources in classes.values():
        if label in atoms:
            raise LabelCollision("two simple classes share a label",
                                 label=label)
        atoms[label] = Atom(label, rep, tuple(sorted(sources)))
    return AtomSet(tuple(atoms[lbl] for lbl in sorted(atoms)))


# -- the defining predicates --------------------------------------------------

def _simples_isomorphic(a, b):
    """Schur's lemma: a nonzero map between simple modules is an
    isomorphism, so one hom-space nullspace decides."""
    return a.dim == b.dim and bool(hom_basis(a, b))


def has_common_nonzero_subobject(m, n, budget=linmod.DEFAULT_BUDGET):
    """Whether a nonzero module embeds in both m and n.

    Equivalent to: some minimal submodule of m is isomorphic to a
    minimal submodule of n (see the module docstring).
    """
    if m.dim == 0 or n.dim == 0:
        return False
    mins_m = [submodule_as_module(s) for s in minimal_submodules(m, budget)]
    mins_n = [submodule_as_module(s) for s in minimal_submodules(n, budget)]
    return any(_simples_isomorphic(a, b) for a in mins_m for b in mins_n)


def is_uniform(module, budget=linmod.DEFAULT_BUDGET):
    """Any two nonzero submodules intersect, i.e. one minimal submodule."""
    if module.dim == 0:
        raise ZeroModule("uniformity is undefined for the zero module")
    return len(minimal_submodules(module, budget)) == 1


def is_monoform(module, budget=linmod.DEFAULT_BUDGET):
    """No nonzero submodule of H embeds into any proper quotient H/L.

    Non-uniform modules fail immediately: disjoint L1, L2 make L1 a
    common subobject of H and H/L2.  For uniform H it suffices to test
    whether the socle embeds into H/L, for every nonzero L in the
    lattice.
    """
    if module.dim == 0:
        raise ZeroModule("monoformness is undefined for the zero module")
    mins = minimal_submodules(module, budget)
    if len(mins) != 1:
        return False
    socle = submodule_as_module(mins[0])
    lat = submodule_lattice(module, budget)
    for sub in lat.nonzero():
        quot = quotient_module(module, sub)
        if quot.dim == 0:
            continue
        for k in minimal_submodules(quot, budget):
            if _simples_isomorphic(socle, submodule_as_module(k)):
                return False
    return True


def atom_equivalent(h1, h2, budget=linmod.DEFAULT_BUDGET):
    for h in (h1, h2):
        if not is_monoform(h, budget):
            raise NotMonoform("atom equivalence needs monoform arguments")
    return has_common_nonzero_subobject(h1, h2, budget)


def atom_of(module, budget=linmod.DEFAULT_BUDGET):
    """The atom of a monoform finite-dimensional module: the class of
    its socle."""
    mins = minimal_submodules(module, budget)
    if len(mins) != 1:
        raise NotMonoform("module is not uniform")
    label, rep = canonical_simple_form(submodule_as_module(mins[0]))
    return Atom(label, rep, tuple(module.basis_labels[:1]))


# -- supports -----------------------------------------------------------------

def asupp(module, budget=linmod.DEFAULT_BUDGET):
    """Atom support: classes of monoform subquotients = classes of
    composition factors (finite length)."""
    factors = composition_factors(module, budget)
    return _dedupe_simples([(f, lbl) for f, lbl in factors])


def aass(module, budget=linmod.DEFAULT_BUDGET):
    """Associated atoms: classes of monoform submodules = classes of
    minimal submodules."""
    mins = minimal_submodules(module, budget)
    simples = []
    for s in mins:
        as_mod = submodule_as_module(s)
        simples.append((as_mod, as_mod.basis_labels[0] if as_mod.dim else None))
    return _dedupe_simples(simples)


# -- spectra ------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumReport:
    atoms: AtomSet
    opens: FiniteTopology
    order: Poset
    flags: dict  # label -> {maximal, minimal, represented_by_simple, ...}

    def to_json(self):
        p = (self.atoms.atoms[0].representative.field.p
             if len(self.atoms) else 2)
        return {"p": p,
                "atoms": [a.to_json() for a in self.atoms],
                "opens": [list(self.opens.subset_of(m))
                          for m in self.opens.opens],
                "order": [[a, b] for (a, b) in sorted(self.order.le)
                          if a != b],
                "flags": {k: dict(v) for k, v in self.flags.items()}}


def _power_set_topology(labels):
    pts = tuple(sorted(labels))
    n = len(pts)
    if n > MAX_TOPOLOGY_ATOMS:
        raise BudgetExceeded("too many atoms for an explicit open family",
                             atoms=n, cap=MAX_TOPOLOGY_ATOMS)
    return FiniteTopology(pts, tuple(range(1 << n)))


def _flags_from(order, topo):
    flags = {}
    maximal = set(order.maximal_elements())
    minimal = set(order.minimal_elements())
    for lbl in order.elements:
        flags[lbl] = {
            "maximal": lbl in maximal,
            "minimal": lbl in minimal,
            "represented_by_simple": True,
            "open_point": topo.is_open([lbl]),
            "closed_point": topo.is_closed([lbl]),
        }
    return flags


def _dag_vertex_simples(quiver, field, order):
    """Composition factors of a quiver module read off a loop-free
    topological order: the coordinate line of each vertex, in reverse
    order, is an invariant layer, and the layer's action scalars are
    the vertex's loop values.  Vertices with the same loop signature,
    the (color, value mod p) pairs, share one module."""
    ops, p = field.ops, field.p
    modules = {}
    out = []
    for v in order:
        sig = tuple((a.color, a.value % p) for a in quiver.loops_at(v)
                    if a.value % p)
        if sig not in modules:
            modules[sig] = FdModule(field, 1, (v,), {
                c: ops.stack([ops.add(ops.zero_vec(1), ops.unit_vec(0, 1),
                                      val)], 1)
                for c, val in sig})
        out.append((modules[sig], v))
    return out


def spectrum(quiver, field=FieldSpec(2), budget=linmod.DEFAULT_BUDGET):
    """Atom spectrum of the category generated by the quiver module.

    Why subquotients of the single module suffice: every atom of the
    generated category is the class of a monoform subquotient of a
    direct sum of copies of the module, any such class already has a
    representative among subquotients of the module itself (project to
    a summand it meets), and atom supports of subquotients are unions
    of supports of composition factors.  Since the module here is
    finite dimensional, every object involved has finite length, each
    atom is the class of a simple subquotient, singleton atom sets are
    therefore open, and the topology is discrete: the open family is
    the full power set and the specialization order is trivial.  The
    non-discrete spectra of the infinite constructions live in the
    symbolic predictor, not here.
    """
    topo_order = loop_stripped_topo_order(quiver)
    if topo_order is not None:
        simples = _dag_vertex_simples(quiver, field, topo_order)
    else:
        module = module_of_quiver(quiver, field)
        simples = [(f, lbl) for f, lbl in composition_factors(module, budget)]
    atoms = _dedupe_simples(simples)
    topo = _power_set_topology(atoms.labels())
    order = poset_of_topology(topo)
    return SpectrumReport(atoms, topo, order, _flags_from(order, topo))


def report_from_json(data):
    """Rebuild a SpectrumReport from its JSON form (order and flags are
    rederived from the open family, which defines them)."""
    field = FieldSpec(data.get("p", 2))
    ops = field.ops
    atoms = []
    for entry in data["atoms"]:
        dim = entry["dim"]
        actions = {c: ops.pack(np.array(rows, dtype=np.int64), dim)
                   for c, rows in entry["actions"].items()}
        rep = FdModule(field, dim, tuple(f"s{i}" for i in range(dim)),
                       actions)
        atoms.append(Atom(entry["label"], rep, tuple(entry["source"])))
    return report_from_parts(atoms, [tuple(s) for s in data["opens"]])


def report_from_parts(atoms, open_label_sets):
    """Assemble a SpectrumReport from atoms plus an explicit open
    family (used for hand-built and symbolic-window reports)."""
    labels = tuple(sorted(a.label for a in atoms))
    proto = FiniteTopology(labels, ())
    masks = sorted({proto.mask_of(s) for s in open_label_sets})
    topo = FiniteTopology(labels, tuple(masks))
    order = poset_of_topology(topo)
    aset = AtomSet(tuple(sorted(atoms, key=lambda a: a.label)))
    return SpectrumReport(aset, topo, order, _flags_from(order, topo))


def localize(report, label):
    """Restrict the spectrum to the closed subset of classes at or
    below the given atom; the atom becomes the greatest element."""
    if label not in report.order.elements:
        raise UnknownAtom("label not in the spectrum", label=label)
    keep = {b for b in report.order.elements if report.order.leq(b, label)}
    atoms = [a for a in report.atoms if a.label in keep]
    induced = {frozenset(set(report.opens.subset_of(m)) & keep)
               for m in report.opens.opens}
    return report_from_parts(atoms, [tuple(s) for s in induced])


def localizing_subcategories(report):
    """Open subsets stand in for localizing subcategories; list them."""
    return [tuple(report.opens.subset_of(m)) for m in report.opens.opens]


def membership(module, open_labels, budget=linmod.DEFAULT_BUDGET):
    """Does the module's atom support sit inside the given open set?"""
    support = asupp(module, budget)
    return set(support.labels()) <= set(open_labels)
