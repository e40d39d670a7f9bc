"""Finite-dimensional modules over the free algebra on a color set.

An FdModule is a GF(p) vector space with one square action matrix per
color; colors absent from the map act as zero, so the color alphabet is
implicitly infinite.  A module built from a colored quiver has one
basis line per vertex, and a color acts by summing along the arrows of
that color.

Submodules are action-invariant row spaces kept in reduced row-echelon
form; the whole submodule lattice of a module is enumerated by closing
the set of cyclic submodules (one per nonzero vector, all p^dim - 1 of
them) under pairwise sums.  That enumeration is exact and exponential,
so it is budget-guarded; the cheaper entry points (one minimal
submodule, composition factors) avoid it where the structure allows.

Structure store: the answers that depend only on a module's action
matrices are computed once per process and kept in `_STORE`, keyed by
`FdModule.key()` = (p, dim, the action matrices), so every module with
equal actions shares them whatever its basis labels.  An entry holds
the distinct cyclic submodules (scan order), the minimal submodules and,
per budget, the lattice and the composition series, all as bare
(basis, pivots) rows and action matrices with no parent module, plus
the canonical simple form that `atomspec` names atoms by.  A module
wraps stored rows as `Submodule`s of itself and relabels stored factors
from its own basis labels, and keeps those wrappers in its `_cache`.
Budget checks run before any lookup, entries that depend on a budget
are keyed by it, and a computation that raises stores nothing.  The
store is unbounded: it grows with the number of distinct modules a
process meets.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BudgetExceeded, NotNested

DEFAULT_BUDGET = 50_000

# FdModule.key() -> {entry name: label-free value}; see the module docstring
_STORE = {}


@dataclass(frozen=True)
class FieldSpec:
    """Prime field GF(p); every value in the package reduces through it."""

    p: int = 2

    def __post_init__(self):
        if not linalg.is_prime(self.p):
            raise ValueError(f"field characteristic must be prime: {self.p}")

    @property
    def ops(self):
        return linalg.ops_for(self.p)


class FdModule:
    """Immutable-by-convention module: never mutate after construction."""

    def __init__(self, field, dim, basis_labels, actions, provenance=None):
        self.field = field
        self.dim = dim
        self.basis_labels = tuple(basis_labels)
        assert len(self.basis_labels) == dim
        self.actions = dict(actions)  # color -> (dim x dim) internal matrix
        self.provenance = provenance
        self._cache = {}

    @property
    def ops(self):
        return self.field.ops

    @property
    def colors(self):
        return tuple(sorted(self.actions))

    def action(self, color):
        return self.actions[color]

    def act(self, vec, color):
        if color not in self.actions:
            return self.ops.zero_vec(self.dim)
        return self.ops.vec_mat(vec, self.actions[color], self.dim)

    def action_stack(self):
        return [self.actions[c] for c in self.colors]

    def key(self):
        if "key" not in self._cache:
            parts = [self.field.p, self.dim]
            for c in self.colors:
                parts.append((c, self.ops.mat_key(self.actions[c])))
            self._cache["key"] = tuple(parts)
        return self._cache["key"]

    def stored(self):
        """The structure-store entry shared by every module with this
        module's key."""
        return _STORE.setdefault(self.key(), {})

    def dense_actions(self):
        return {c: self.ops.unpack(self.actions[c], self.dim)[:self.dim].tolist()
                for c in self.colors}

    def to_json(self):
        return {"p": self.field.p, "dim": self.dim,
                "labels": list(self.basis_labels),
                "actions": self.dense_actions()}

    def __repr__(self):
        return f"FdModule(p={self.field.p}, dim={self.dim}, colors={len(self.actions)})"


def module_from_json(data):
    field = FieldSpec(data["p"])
    dim = data["dim"]
    ops = field.ops
    actions = {c: ops.pack(np.array(rows, dtype=np.int64), dim)
               for c, rows in data["actions"].items()}
    return FdModule(field, dim, data["labels"], actions)


def module_of_quiver(quiver, field=FieldSpec(2)):
    """One basis line x_v per vertex; color c maps x_v to the sum of
    value * x_w over arrows (v, w, c)."""
    ops = field.ops
    n = len(quiver.vertices)
    index = {v: i for i, v in enumerate(quiver.vertices)}
    dense = {}
    for a in quiver.arrows:
        if a.color not in dense:
            dense[a.color] = np.zeros((n, n), dtype=np.int64)
        dense[a.color][index[a.src], index[a.dst]] += a.value
    actions = {}
    for c, mat in dense.items():
        mat %= field.p
        if mat.any():
            actions[c] = ops.pack(mat, n)
    return FdModule(field, n, quiver.vertices, actions,
                    provenance={"kind": "quiver"})


class Submodule:
    """Action-invariant row space of a parent module, in rref."""

    def __init__(self, parent, basis, pivots):
        self.parent = parent
        self.basis = basis
        self.pivots = pivots

    @property
    def dim(self):
        return len(self.basis)

    def key(self):
        return (self.dim, self.parent.ops.mat_key(self.basis))

    def order_key(self):
        """Listing order of submodules: by dimension, then basis rows."""
        return (self.dim, self.parent.ops.order_key(self.basis,
                                                    self.parent.dim))

    def contains_vec(self, vec):
        return linalg.in_span(self.parent.ops, vec, self.basis, self.pivots)

    def contains(self, other):
        return linalg.span_contains(self.parent.ops, self.basis, self.pivots,
                                    other.basis, other.pivots)

    def is_action_closed(self):
        return all(self.contains_vec(self.parent.act(row, c))
                   for row in self.basis for c in self.parent.colors)

    def __eq__(self, other):
        return (isinstance(other, Submodule) and self.parent is other.parent
                and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Submodule(dim={self.dim} of {self.parent.dim})"


def zero_submodule(module):
    ops = module.ops
    return Submodule(module, ops.empty_mat(module.dim), ())


def full_submodule(module):
    n = module.dim
    if n == 0:
        return zero_submodule(module)
    ops = module.ops
    basis = ops.stack([ops.unit_vec(i, n) for i in range(n)], n)
    return Submodule(module, basis, tuple(range(n)))


def submodule_span(module, rows, check=True):
    """Submodule spanned by given packed rows; rows must already be
    action-closed as a set (checked unless told otherwise)."""
    ops = module.ops
    basis, piv = ops.rref(rows, module.dim)
    sub = Submodule(module, basis, piv)
    if check and not sub.is_action_closed():
        raise ValueError("row span is not action-invariant")
    return sub


def cyclic_submodule(module, vec):
    """Smallest action-closed subspace containing vec (breadth-first)."""
    ops = module.ops
    basis, piv = ops.cyclic_closure(vec, module.action_stack(), module.dim)
    return Submodule(module, basis, piv)


def sum_submodules(a, b):
    ops = a.parent.ops
    n = a.parent.dim
    basis, piv = ops.rref(ops.stack([*a.basis, *b.basis], n), n)
    return Submodule(a.parent, basis, piv)


def intersect_submodules(a, b):
    """Intersection of two invariant row spaces (itself invariant).

    Coefficient rows (x, y) with x . A + y . B = 0 parametrize the
    intersection through x . A.
    """
    m = a.parent
    ops = m.ops
    ka, kb = a.dim, b.dim
    if ka == 0 or kb == 0:
        return zero_submodule(m)
    stacked = ops.stack([*a.basis, *b.basis], m.dim)
    ker = ops.left_nullspace(stacked, ka + kb, m.dim)
    rows = [ops.vec_mat(x, a.basis, ka) for x in ker]
    if not rows:
        return zero_submodule(m)
    basis, piv = ops.rref(ops.stack(rows, m.dim), m.dim)
    return Submodule(m, basis, piv)


@dataclass
class SubmoduleSet:
    members: tuple  # sorted by Submodule.order_key
    complete: bool

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def nonzero(self):
        return [s for s in self.members if s.dim > 0]

    def proper_nonzero(self):
        return [s for s in self.members
                if 0 < s.dim < self.members[-1].parent.dim]


def _memo(module, name, compute, wrap):
    """`wrap(module, value)` for the store entry `name` of the module's
    key, computed by `compute(module)` on a miss; the wrapped result is
    kept in the module's own cache.  A computation that raises stores
    nothing."""
    if name not in module._cache:
        entry = module.stored()
        if name not in entry:
            entry[name] = compute(module)
        module._cache[name] = wrap(module, entry[name])
    return module._cache[name]


def _rows(subs):
    return tuple((s.basis, s.pivots) for s in subs)


def _wrap(module, rows):
    return tuple(Submodule(module, basis, piv) for basis, piv in rows)


def _check_seeds(module, budget):
    seeds = module.ops.count_nonzero_vectors(module.dim)
    if seeds > budget:
        raise BudgetExceeded("too many seed vectors", seeds=seeds,
                             budget=budget, partial=None)


def _scan_cyclic(module):
    ops = module.ops
    n = module.dim
    acts = module.action_stack()
    seen = {}
    for vec in ops.enumerate_nonzero(n):
        basis, piv = ops.cyclic_closure(vec, acts, n)
        seen.setdefault(ops.mat_key(basis), (basis, piv))
    return tuple(seen.values())


def _distinct_cyclic(module, budget):
    """The distinct cyclic submodules in seed order, one seed scan per
    key (the budget is checked first, so a smaller budget still
    refuses)."""
    _check_seeds(module, budget)
    return _memo(module, "cyclic", _scan_cyclic, _wrap)


def submodule_lattice(module, budget=DEFAULT_BUDGET):
    """Every submodule: cyclic submodules closed under pairwise sums.

    Any submodule is the sum of the cyclic submodules of its elements,
    so this closure is the complete lattice (and thus automatically
    closed under intersections as well).  Raises BudgetExceeded with
    the partial set attached when the member count passes the budget.
    """
    if module.dim == 0:
        return SubmoduleSet((zero_submodule(module),), True)
    return _memo(module, ("lattice", budget),
                 lambda m: _close_lattice(m, budget),
                 lambda m, rows: SubmoduleSet(_wrap(m, rows), True))


def _close_lattice(module, budget):
    """Rows of every lattice member, sorted by `Submodule.order_key`."""
    zero = zero_submodule(module)
    members = {zero.key(): zero}
    for s in _distinct_cyclic(module, budget):
        members[s.key()] = s

    def overflow():
        part = SubmoduleSet(tuple(sorted(members.values(),
                                         key=Submodule.order_key)), False)
        return BudgetExceeded("lattice larger than budget",
                              budget=budget, partial=part)

    if len(members) > budget:
        raise overflow()
    worklist = list(members.values())
    while worklist:
        s = worklist.pop()
        for t in list(members.values()):
            u = sum_submodules(s, t)
            k = u.key()
            if k not in members:
                members[k] = u
                worklist.append(u)
                if len(members) > budget:
                    raise overflow()
    return _rows(sorted(members.values(), key=Submodule.order_key))


def subquotient(module, lower, upper):
    """Module structure on upper/lower with induced color actions.

    Synthetic basis labels carry the parent label of each quotient
    basis vector's pivot coordinate, so provenance survives peeling.
    """
    if not upper.contains(lower):
        raise NotNested("lower is not contained in upper")
    ops = module.ops
    n = module.dim
    ext_rows = [r for r in (ops.reduce_row(row, lower.basis, lower.pivots)
                            for row in upper.basis)
                if not ops.is_zero(r)]
    if not ext_rows:
        return FdModule(module.field, 0, (), {},
                        provenance={"kind": "subquotient", "of": module.provenance})
    ebasis, epiv = ops.rref(ops.stack(ext_rows, n), n)
    k = len(ebasis)
    labels = tuple(module.basis_labels[int(p)] for p in epiv)
    actions = {}
    for c in module.colors:
        # row i: coordinates of the image of quotient basis vector i
        rows = []
        for row in ebasis:
            w = module.act(row, c)
            w = ops.reduce_row(w, lower.basis, lower.pivots)
            coeffs = ops.coords(w, ebasis, epiv, n)
            assert coeffs is not None, "upper must be action-closed"
            rows.append(coeffs)
        if not all(ops.is_zero(r) for r in rows):
            actions[c] = ops.stack(rows, k)
    return FdModule(module.field, k, labels, actions,
                    provenance={"kind": "subquotient",
                                "pivot_labels": list(labels)})


def submodule_as_module(sub):
    """The submodule itself as an abstract module (basis = its rref rows)."""
    return subquotient(sub.parent, zero_submodule(sub.parent), sub)


def quotient_module(module, sub):
    return subquotient(module, sub, full_submodule(module))


def hom_basis(m, n):
    """Basis of {F : F intertwines every color action}, maps as dense
    (dim_m x dim_n) row-convention matrices (f(v) = v @ F)."""
    if m.field.p != n.field.p:
        raise ValueError("modules live over different prime fields")
    p = m.field.p
    ops = m.ops
    dm, dn = m.dim, n.dim
    if dm == 0 or dn == 0:
        return []
    colors = sorted(set(m.colors) | set(n.colors))
    if not colors:
        # no actions anywhere: every linear map intertwines
        out = []
        for i in range(dm):
            for j in range(dn):
                f = np.zeros((dm, dn), dtype=np.int64)
                f[i, j] = 1
                out.append(f)
        return out
    blocks = []
    eye_m = np.eye(dm, dtype=np.int64)
    eye_n = np.eye(dn, dtype=np.int64)
    for c in colors:
        am = (ops.unpack(m.actions[c], dm).astype(np.int64)
              if c in m.actions else np.zeros((dm, dm), dtype=np.int64))
        an = (ops.unpack(n.actions[c], dn).astype(np.int64)
              if c in n.actions else np.zeros((dn, dn), dtype=np.int64))
        blocks.append((np.kron(am, eye_n) - np.kron(eye_m, an.T)) % p)
    ns = ops.nullspace(ops.pack(np.concatenate(blocks), dm * dn), dm * dn)
    return [np.array(r, dtype=np.int64).reshape(dm, dn)
            for r in ops.unpack(ns, dm * dn)]


# -- minimal submodules and composition factors ------------------------------

def _eigen_leaves(module):
    """Common-eigenvector subspaces: maximal subspaces on which every
    color acts as a scalar.  Every 1-dim invariant line lies in one."""
    ops = module.ops
    n = module.dim
    if n == 0:
        return []
    full = full_submodule(module)
    leaves = [(full.basis, full.pivots)]
    for c in module.colors:
        new = []
        for basis, piv in leaves:
            k = len(basis)
            images = [module.act(row, c) for row in basis]
            for lam in range(module.field.p):
                # the lam-eigenvectors of c: kernel of (action - lam)
                target = ops.stack([ops.add(img, row, -lam)
                                    for img, row in zip(images, basis)], n)
                ker = ops.left_nullspace(target, k, n)
                if len(ker) == 0:
                    continue
                rows = [ops.vec_mat(x, basis, k) for x in ker]
                sub_basis, sub_piv = ops.rref(ops.stack(rows, n), n)
                new.append((sub_basis, sub_piv))
        leaves = new
        if not leaves:
            break
    return leaves


def find_one_minimal(module, budget=DEFAULT_BUDGET):
    """Some minimal (simple) submodule, or None for the zero module.

    Fast path: common-eigenvector lines, which cover every construction
    in this package.  Fallback: scan all cyclic submodules (budgeted);
    a smallest one is minimal.
    """
    if module.dim == 0:
        return None
    ops = module.ops
    n = module.dim
    leaves = _eigen_leaves(module)
    if leaves:
        basis, _ = min(leaves, key=lambda bp: ops.order_key(bp[0], n))
        b, piv = ops.rref(ops.stack([basis[0]], n), n)
        return Submodule(module, b, piv)
    cyclics = _distinct_cyclic(module, budget)
    return min(cyclics, key=Submodule.order_key)


def minimal_submodules(module, budget=DEFAULT_BUDGET):
    """All minimal nonzero submodules (budgeted full scan).

    Minimal submodules are cyclic, and minimality among the distinct
    cyclic submodules is the same as minimality among all submodules.
    """
    if module.dim == 0:
        return []
    _check_seeds(module, budget)
    return list(_memo(module, "minimal",
                      lambda m: _rows(_minimal_cyclic(m, budget)), _wrap))


def _minimal_cyclic(module, budget):
    cyclics = sorted(_distinct_cyclic(module, budget),
                     key=Submodule.order_key)
    out = []
    for s in cyclics:
        minimal = True
        for t in cyclics:
            if t.dim >= s.dim:
                break  # sorted by dim first: nothing smaller remains
            if s.contains(t):
                minimal = False
                break
        if minimal:
            out.append(s)
    return out


def composition_factors(module, budget=DEFAULT_BUDGET):
    """Multiset of simple factors, peeled minimal submodule by minimal
    submodule.  Returns (factor module, pivot label) pairs."""
    return list(_memo(module, ("factors", budget),
                      lambda m: _factor_series(m, budget), _relabel_factors))


def _factor_series(module, budget):
    """The composition series without labels: per factor, its dim, its
    actions and the indices into `module.basis_labels` of its basis
    labels (the peel runs on a copy labelled by index)."""
    current = FdModule(module.field, module.dim, range(module.dim),
                       module.actions)
    out = []
    while current.dim > 0:
        k = find_one_minimal(current, budget)
        factor = submodule_as_module(k)
        out.append((factor.dim, factor.actions, factor.basis_labels))
        current = quotient_module(current, k)
    return tuple(out)


def _relabel_factors(module, series):
    out = []
    for dim, actions, index in series:
        labels = tuple(module.basis_labels[i] for i in index)
        factor = FdModule(module.field, dim, labels, actions,
                          provenance={"kind": "subquotient",
                                      "pivot_labels": list(labels)})
        out.append((factor, labels[0]))
    return tuple(out)


def is_essential(sub, module, budget=DEFAULT_BUDGET):
    """True iff sub meets every nonzero submodule, i.e. contains every
    minimal submodule."""
    if module.dim == 0:
        return True
    if sub.dim == 0:
        return False
    return all(sub.contains(k) for k in minimal_submodules(module, budget))


@dataclass
class StructureReport:
    is_simple: bool
    composition_length: int
    socle: Submodule
    radical_series_lengths: tuple


def structure_report(module, budget=DEFAULT_BUDGET):
    """Exact structural summary from the full lattice."""
    lat = submodule_lattice(module, budget)
    nonzero = lat.nonzero()
    minimal = [s for s in nonzero
               if not any(t.dim and t.dim < s.dim and s.contains(t)
                          for t in nonzero)]
    socle = zero_submodule(module)
    for s in minimal:
        socle = sum_submodules(socle, s)
    # composition length: longest chain through the lattice
    by_key = sorted(lat, key=lambda s: s.dim)
    longest = {}
    for s in by_key:
        best = 0
        for t in by_key:
            if t.dim < s.dim and s.contains(t):
                best = max(best, longest[t.key()])
        longest[s.key()] = best + 1
    comp_len = max(longest.values()) - 1 if longest else 0

    rad_layers = []
    current = full_submodule(module)
    while current.dim > 0:
        members = [s for s in lat
                   if s.dim < current.dim and current.contains(s)]
        maximal_in = [s for s in members
                      if not any(t.dim > s.dim and t.contains(s)
                                 for t in members)]
        if not maximal_in:
            rad_layers.append(current.dim)
            break
        rad = maximal_in[0]
        for s in maximal_in[1:]:
            rad = intersect_submodules(rad, s)
        rad_layers.append(current.dim - rad.dim)
        current = rad
    return StructureReport(
        is_simple=(module.dim > 0 and len(lat) == 2),
        composition_length=comp_len,
        socle=socle,
        radical_series_lengths=tuple(rad_layers),
    )
