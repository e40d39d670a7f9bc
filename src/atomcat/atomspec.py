"""Atoms: equivalence classes of monoform modules, and their spectra.

A module H is monoform when no nonzero submodule of H is isomorphic to
a submodule of a proper quotient H/L; two monoform modules are
equivalent when they share a nonzero submodule (up to isomorphism).
On finite-dimensional modules the following reductions hold and drive
every implementation here; the exhaustive nested-pair definitions stay
available in the test suite as oracles.

* A common nonzero subobject of M and N exists iff some minimal
  submodule of M is isomorphic to a minimal submodule of N, that is,
  iff their associated atoms (`aass`) meet: any common subobject
  contains a simple one, and a simple common subobject is a minimal
  submodule on both sides.
* A uniform module has exactly one minimal submodule (its socle); a
  monoform module is uniform, and its class equals the class of its
  socle, so every atom of a finite-dimensional module is represented
  by a simple module.
* A module is monoform exactly when it is uniform and its socle class
  occurs once among its composition factors (`is_monoform`), so the
  predicate needs the minimal submodules and one composition series,
  not the submodule lattice.
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
from dataclasses import dataclass

from . import linmod
from .errors import BudgetExceeded, LabelCollision, NotMonoform, ZeroModule
from .linmod import (FdModule, FieldSpec, composition_factors, hom_basis,
                     minimal_submodules, submodule_as_module)
from .ordertop import FiniteTopology
from .quiver import blocks_with_arrows


# -- canonical representatives and labels ------------------------------------

def _line_label(values):
    """Label of the one-dimensional simple on which each color c acts by
    the nonzero scalar values[c]: S(c,d=2,...), colors sorted, a unit
    scalar left unwritten.  `canonical_simple_form` names every
    dimension-1 simple this way."""
    return "S(" + ",".join(c if v == 1 else f"{c}={v}"
                           for c, v in sorted(values.items())) + ")"


def canonical_simple_form(simple):
    """Basis-independent canonical copy of a simple module, plus label.

    Parker's standard basis (the Meat-Axe): every nonzero seed of a
    simple module spins up to a basis, and the actions written in that
    basis are one candidate form.  An isomorphism carries seeds to seeds
    and forms to equal forms, so the least form over all seeds (as
    coordinate tuples) is exact: two simples get the same representative
    and label exactly when they are isomorphic.  Zero colors are left
    out.  Seeds have leading coordinate 1 (a scalar multiple spins up to
    the same form): (p^k - 1)/(p - 1) spin-ups in the field's kernel,
    `F2Ops.spin_up` on int bitsets or `FpOps.spin_up` on tuple rows.
    Each is bounded by the least form found so far and stops as soon as
    its leading entries exceed it, which leaves the least form, ties
    included, unchanged.  A seed that fails to span raises ValueError
    when its spin-up runs to the end, so a module that is not simple is
    refused unless each of its non-spanning seeds is cut off by the
    bound first.  The result is kept in the `linmod` structure store
    under the simple's key.
    """
    stored = simple.stored()
    if "canon" in stored:
        return stored["canon"]
    k, ops = simple.dim, simple.ops
    colors = tuple(c for c in simple.colors
                   if not all(map(ops.is_zero, simple.actions[c])))
    acts = [simple.actions[c] for c in colors]
    best = None
    for seed in ops.line_seeds(k):
        form = ops.spin_up(seed, acts, k, best)
        if form is not None:
            best = form
    best = ops.unpack_form(best, k, len(colors))
    rep = FdModule(simple.field, k, tuple(f"s{i}" for i in range(k)), {
        c: ops.pack([row[j] for row in best], k)
        for j, c in enumerate(colors)})
    if k == 1:
        label = _line_label({c: v for c, (v,) in zip(colors, best[0])})
    else:
        digest = hashlib.blake2b(repr((colors, best)).encode(),
                                 digest_size=6).hexdigest()
        label = f"S[{k}]{digest}"
    stored["canon"] = label, rep
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
    """Partition simple modules, given as (simple, sources) pairs, into
    isomorphism classes -> AtomSet, each atom with its class's sources.

    Classes are keyed by the canonical form itself, which is exact; a
    label shared by two different forms is a digest collision and
    raises rather than merging two classes.
    """
    classes = {}
    for simple, srcs in simples_with_sources:
        label, rep = canonical_simple_form(simple)
        _, _, sources = classes.setdefault(rep.key(), (label, rep, set()))
        sources.update(srcs)
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
    isomorphism, so one hom-space nullspace decides; equal action
    matrices (equal keys) need none."""
    return a.dim == b.dim and (a.key() == b.key() or bool(hom_basis(a, b)))


def is_uniform(module):
    """Any two nonzero submodules intersect, i.e. one minimal submodule."""
    if module.dim == 0:
        raise ZeroModule("uniformity is undefined for the zero module")
    return len(minimal_submodules(module)) == 1


def is_monoform(module):
    """No nonzero submodule of H embeds into any proper quotient H/L.

    Non-uniform modules fail immediately: disjoint L1, L2 make L1 a
    common subobject of H and H/L2.  A uniform H, with socle S, is
    monoform exactly when S occurs once among its composition factors.
    A second factor X/Y isomorphic to S, with Y containing S (every
    nonzero submodule does), embeds S in the proper quotient H/Y.
    Conversely, if a nonzero submodule K embeds in H/L, L nonzero, then
    so does S, which K contains: S is a factor of H/L.  L contains S
    too, so S is a factor of L, and the factors of H are those of L
    and of H/L together (Jordan-Hoelder).
    """
    if module.dim == 0:
        raise ZeroModule("monoformness is undefined for the zero module")
    mins = minimal_submodules(module)
    if len(mins) != 1:
        return False
    socle = submodule_as_module(mins[0])
    return sum(_simples_isomorphic(socle, f)
               for f, _ in composition_factors(module)) == 1


def atom_of(module):
    """The atom of a monoform finite-dimensional module: the class of
    its socle."""
    mins = minimal_submodules(module)
    if len(mins) != 1:
        raise NotMonoform("module is not uniform")
    label, rep = canonical_simple_form(submodule_as_module(mins[0]))
    return Atom(label, rep, tuple(module.basis_labels[:1]))


# -- supports -----------------------------------------------------------------

def asupp(module):
    """Atom support: classes of monoform subquotients = classes of
    composition factors (finite length), each atom with the pivot
    labels of its factors as sources.  Kept in the module's own cache,
    built from the stored composition series."""
    return linmod._cached(module, "asupp", lambda m: _dedupe_simples(
        (f, (i,)) for f, i in composition_factors(m)))


def aass(module):
    """Associated atoms: classes of monoform submodules = classes of
    minimal submodules, each atom with the first basis label of its
    minimal submodules as sources.  Kept in the module's own cache."""
    return linmod._cached(module, "aass", lambda m: _dedupe_simples(
        (s, s.basis_labels[:1])
        for s in map(submodule_as_module, minimal_submodules(m))))


# -- spectra ------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumReport:
    """The atoms of a quiver module's category.  Their topology is
    discrete (see `spectrum`), so the report lists no order pair."""

    atoms: AtomSet
    p: int = 2

    @property
    def opens(self):
        """The discrete topology on the atom labels; `perfbench/tracer.py`
        counts its open sets."""
        return FiniteTopology(self.atoms.labels(),
                              tuple(1 << i for i in range(len(self.atoms))))

    def to_json(self):
        return {"p": self.p, "atoms": [a.to_json() for a in self.atoms],
                "order": []}


def spectrum(quiver, field=FieldSpec(2)):
    """Atom spectrum of the category generated by the quiver module.

    Why subquotients of the single module suffice: every atom of the
    generated category is the class of a monoform subquotient of a
    direct sum of copies of the module, any such class already has a
    representative among subquotients of the module itself (project to
    a summand it meets), and atom supports of subquotients are unions
    of supports of composition factors.  Since the module here is
    finite dimensional, every object involved has finite length, each
    atom is the class of a simple subquotient, singleton atom sets are
    therefore open, and the topology is discrete: the specialization
    order is the antichain on the labels and each minimal open set is a
    single atom, at any atom count.  The non-discrete spectra of the
    infinite constructions live in the symbolic predictor, not here.

    Composition factors come from the strongly connected blocks, sinks
    first: unions of leading blocks are target-closed, so by
    Jordan-Hoelder the block modules have the quiver module's factors.
    Blocks are grouped by their arrows, each vertex renamed by its place
    in its block (one index for the quiver, as the blocks partition its
    vertices) and values taken mod p, zeros dropped, in block order;
    each group's series is computed once and each of its factors
    canonical-formed once.  A factor's sources are the group's block
    vertices at its pivot index, and a BudgetExceeded names the first
    block whose series hit the budget.
    """
    p = field.p
    groups, parts = {}, blocks_with_arrows(quiver)
    index = {v: i for block, _ in parts for i, v in enumerate(block)}
    for block, arrows in parts:
        sig = (len(block), tuple([(index[src], index[dst], color, value % p)
                                  for src, dst, color, value in arrows
                                  if value % p]))
        groups.setdefault(sig, []).append(block)
    simples = []
    for (dim, arrows), blocks in groups.items():
        module = linmod._module_of_arrows(field, range(dim), arrows)
        try:
            series = composition_factors(module)
        except BudgetExceeded as exc:
            exc.context.update(block=list(blocks[0]), dim=dim)
            raise
        simples.extend((f, [b[i] for b in blocks]) for f, i in series)
    return SpectrumReport(_dedupe_simples(simples), p)
