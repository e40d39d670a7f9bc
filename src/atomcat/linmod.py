"""Finite-dimensional modules over the free algebra on a color set.

An FdModule is a GF(p) vector space with one square action matrix per
color; colors absent from the map act as zero, so the color alphabet is
implicitly infinite.  A module built from a colored quiver has one
basis line per vertex, and a color acts by summing along the arrows of
that color.

Submodules are action-invariant row spaces kept in reduced row-echelon
form; the whole submodule lattice of a module is enumerated by joining
each distinct cyclic submodule in turn into the members found so far.
The cyclic scan finds those in one pass over the lines, one seed per
line, (p^dim - 1)/(p - 1) of them, since a seed and its nonzero
multiples span the same submodule: `linalg.cyclic_submodules` closes
each strongly connected component of the field kernel's graph from a
seed to the lines of its images once, and its budget counts the lines.
That enumeration is exact and exponential, so it is guarded by the
budget of the module's `FieldSpec`, checked before anything is built;
the cheaper entry points (composition factors, the structure report)
avoid it where the structure allows, and a composition series peels each
coordinate eigenline off the action rows.

Structure store: what another labelling of the same actions reuses, or
what costs a scan or a peel, is computed once per process and kept in
`_STORE`, keyed by `FdModule.key()` = (p, budget, dim, the action
matrices), so every module with equal actions over one field and budget
shares it whatever its basis labels.  An entry holds the distinct cyclic
submodules under "cyclic" (in the order of their first line seed), as
(basis, pivots) rows with no parent; the composition series under
"factors" and each subquotient asked for under ("subquotient", lower
basis, upper basis), as pivot indices and (color, matrix) pairs; the
canonical simple form under "canon"; and, under ("module", basis
labels), the one module per tuple of basis labels that
`module_of_quiver`, subquotients, composition factors and `indexed_copy`
return, so equal labelled modules share one `_cache`.  A module wraps
stored rows as its own `Submodule`s, relabels stored factors and
subquotients from its basis labels, and keeps those in its `_cache`.
What is built from these without a scan or a peel lives only in the
`_cache` of the module that asked: the lattice (the joins of the cyclic
submodules) under "lattice", `atomspec`'s atom support and associated
atoms (the classes of the factors or of the minimal submodules) under
"asupp" and "aass", and the minimal submodules under "minimal".  Over
the core battery a stored lattice was never reused, and a stored copy of
the others saved only that last step.  The key holds the budget, so
interned modules, store entries and module caches each belong to one
budget, and a hit was computed at the asking module's own budget; a
computation that raises stores nothing.  The store is unbounded: it
grows with the number of distinct modules a process meets, by one
subquotient entry per pair of bases met per module, and by one module
per labelled module a process meets.
"""

from dataclasses import dataclass

from . import linalg
from .errors import BudgetExceeded, NotNested

DEFAULT_BUDGET = 50_000

# FdModule.key() -> {entry name: label-free value}; see the module docstring
_STORE = {}


@dataclass(frozen=True)
class FieldSpec:
    """Prime field GF(p), through which every value in the package
    reduces, and the budget of every exponential scan of a module over
    it: the most line seeds a cyclic scan may read and the most members
    a lattice may list."""

    p: int = 2
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if type(self.p) is not int or not linalg.is_prime(self.p):
            raise ValueError(f"field characteristic must be prime: {self.p!r}")
        if type(self.budget) is not int or self.budget < 1:
            raise ValueError(f"budget must be an int >= 1: {self.budget!r}")
        object.__setattr__(self, "ops", linalg.ops_for(self.p))


class FdModule:
    """Immutable-by-convention module: never mutate after construction."""

    def __init__(self, field, dim, basis_labels, actions):
        self.field = field
        self.dim = dim
        self.basis_labels = tuple(basis_labels)
        if len(self.basis_labels) != dim:
            raise ValueError(f"{len(self.basis_labels)} basis labels for "
                             f"dimension {dim}")
        self.actions = dict(actions)  # color -> (dim x dim) internal matrix
        self.ops = field.ops
        self._cache = {}

    @property
    def colors(self):
        return tuple(sorted(self.actions))

    def act(self, vec, color):
        if color not in self.actions:
            return self.ops.zero_vec(self.dim)
        return self.ops.vec_mat(vec, self.actions[color], self.dim)

    def action_stack(self):
        return [self.actions[c] for c in self.colors]

    def key(self):
        """(p, budget, dim, the action matrices): the structure store's
        key, so modules with equal actions over one field and budget
        share an entry."""
        if "key" not in self._cache:
            self._cache["key"] = _key(self.field, self.dim, self.actions)
        return self._cache["key"]

    def stored(self):
        """The structure-store entry shared by every module with this
        module's key."""
        return _STORE.setdefault(self.key(), {})

    def dense_actions(self):
        return {c: self.ops.unpack(self.actions[c], self.dim)
                for c in self.colors}

    def __repr__(self):
        return f"FdModule(p={self.field.p}, dim={self.dim}, colors={len(self.actions)})"


def _key(field, dim, actions):
    """`FdModule.key()` of a module with these parts."""
    return (field.p, field.budget, dim, *sorted(actions.items()))


def _interned(field, labels, actions):
    """The one module with these basis labels and actions (color ->
    matrix), kept in its key's store entry under ("module", labels)."""
    labels = tuple(labels)
    entry = _STORE.setdefault(_key(field, len(labels), actions), {})
    if ("module", labels) not in entry:
        entry[("module", labels)] = FdModule(field, len(labels), labels,
                                            actions)
    return entry[("module", labels)]


def module_of_quiver(quiver, field=FieldSpec(2)):
    """One basis line x_v per vertex; color c maps x_v to the sum of
    value * x_w over arrows (v, w, c)."""
    index = {v: i for i, v in enumerate(quiver.vertices)}
    return _module_of_arrows(field, quiver.vertices, [
        (index[src], index[dst], color, value)
        for src, dst, color, value in quiver.arrows])


def _module_of_arrows(field, labels, arrows):
    """One basis line per label, arrows as (src index, dst index, color,
    value), at most one per (src, dst, color); zero colors left out."""
    ops, n, rows = field.ops, len(labels), {}
    for i, j, c, value in arrows:
        if value % field.p:
            if c not in rows:
                rows[c] = [ops.zero_vec(n)] * n
            rows[c][i] = ops.add(rows[c][i], ops.unit_vec(j, n),
                                 value % field.p)
    return _interned(field, labels,
                     {c: tuple(mat) for c, mat in rows.items()})


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
        """Identity and listing order of submodules: by dimension, then
        basis rows."""
        return (self.dim, self.basis)

    def contains(self, other):
        ops, basis, pivots = self.parent.ops, self.basis, self.pivots
        for row in other.basis:
            if not ops.is_zero(ops.reduce_row(row, basis, pivots)):
                return False
        return True

    def __eq__(self, other):
        return (isinstance(other, Submodule) and self.parent is other.parent
                and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Submodule(dim={self.dim} of {self.parent.dim})"


def zero_submodule(module):
    return Submodule(module, (), ())


def full_submodule(module):
    n = module.dim
    ops = module.ops
    basis = tuple(ops.unit_vec(i, n) for i in range(n))
    return Submodule(module, basis, tuple(range(n)))


def sum_submodules(a, b):
    ops = a.parent.ops
    n = a.parent.dim
    basis, piv = ops.rref((*a.basis, *b.basis), n)
    return Submodule(a.parent, basis, piv)


def _cached(module, name, compute):
    """`compute(module)`, kept in the module's own cache under `name`.
    A computation that raises keeps nothing."""
    if name not in module._cache:
        module._cache[name] = compute(module)
    return module._cache[name]


def _memo(module, name, compute, wrap):
    """`wrap(module, value)` for the store entry `name` of the module's
    key, computed by `compute(module)` on a miss; the wrapped result is
    kept in the module's own cache (`_cached`).  A computation that
    raises stores nothing."""
    def stored(m):
        entry = m.stored()
        if name not in entry:
            entry[name] = compute(m)
        return wrap(m, entry[name])

    return _cached(module, name, stored)


def _wrap(module, rows):
    return tuple(Submodule(module, basis, piv) for basis, piv in rows)


def _check_seeds(module):
    p, budget = module.field.p, module.field.budget
    seeds = (p ** module.dim - 1) // (p - 1)
    if seeds > budget:
        raise BudgetExceeded("too many seed vectors", seeds=seeds,
                             budget=budget, partial=None)


def _scan_cyclic(module):
    """The distinct cyclic submodules' rows in the order of their first
    line seed, from one pass over the field kernel's image graph of the
    seeds (`linalg.cyclic_submodules`), once the seeds fit the budget."""
    _check_seeds(module)
    return linalg.cyclic_submodules(module.ops, module.action_stack(),
                                    module.dim)


def _distinct_cyclic(module):
    """The distinct cyclic submodules in seed order, one seed scan per
    key."""
    return _memo(module, "cyclic", _scan_cyclic, _wrap)


def submodule_lattice(module):
    """Every submodule: the sums of sets of cyclic submodules.

    Any submodule is the sum of the cyclic submodules of its elements,
    so these sums are the complete lattice (and thus automatically
    closed under intersections as well).  A tuple sorted by
    `Submodule.key`.  Raises BudgetExceeded when the member count passes
    the budget, its partial the sorted tuple of the members found so
    far.
    """
    return _cached(module, "lattice", _close_lattice)


def _close_lattice(module):
    """Every lattice member, sorted by `Submodule.key`: each distinct
    cyclic submodule c in turn is joined by `rref` into every member
    found so far (a member that holds c comes back as itself), so the
    members, kept as rows under their keys, are the sums of every set
    of the cyclic submodules joined."""
    ops, n, budget = module.ops, module.dim, module.field.budget
    members = {(0, ()): ((), ())}
    for c in _distinct_cyclic(module):
        for rows in list(members.values()):
            u = ops.rref(c.basis, n, rows)
            members.setdefault((len(u[0]), u[0]), u)
            if len(members) > budget:
                raise BudgetExceeded(
                    "lattice larger than budget", budget=budget,
                    partial=_sorted_members(module, members))
    return _sorted_members(module, members)


def _sorted_members(module, members):
    return tuple(Submodule(module, *members[k]) for k in sorted(members))


def subquotient(module, lower, upper):
    """Module structure on upper/lower with induced color actions.

    Each quotient basis vector takes the parent's label of its pivot
    coordinate, so labels survive peeling.  The pivots and the actions
    are stored under the pair of (canonical, rref) bases.
    """
    return _memo(module, ("subquotient", lower.basis, upper.basis),
                 lambda m: _subquotient_rows(m, lower, upper),
                 _labelled_module)


def _labelled_module(module, rows):
    """The module stored as (indices into `module.basis_labels`, (color,
    matrix) pairs), labelled from `module`."""
    index, actions = rows
    return _interned(module.field,
                     tuple(module.basis_labels[i] for i in index),
                     dict(actions))


def _subquotient_rows(module, lower, upper):
    """The pivots of upper/lower's basis in the parent and its actions,
    as (color, matrix) pairs."""
    if not upper.contains(lower):
        raise NotNested("lower is not contained in upper")
    ops = module.ops
    n = module.dim
    ebasis, epiv = ops.rref([ops.reduce_row(row, lower.basis, lower.pivots)
                             for row in upper.basis], n)
    actions = []
    for c in module.colors:
        # row i: coordinates of the image of quotient basis vector i
        act, rows = module.actions[c], []
        for row in ebasis:
            w = ops.reduce_row(ops.vec_mat(row, act, n), lower.basis,
                               lower.pivots)
            coeffs = ops.coords(w, ebasis, epiv, n)
            if coeffs is None:
                raise ValueError("upper must be action-closed")
            rows.append(coeffs)
        if not all(ops.is_zero(r) for r in rows):
            actions.append((c, tuple(rows)))
    return epiv, tuple(actions)


def submodule_as_module(sub):
    """The submodule itself as an abstract module (basis = its rref rows)."""
    return subquotient(sub.parent, zero_submodule(sub.parent), sub)


def quotient_module(module, sub):
    return subquotient(module, sub, full_submodule(module))


def hom_basis(m, n):
    """Basis of {F : F intertwines every color action}, each map as
    dim_m rows of dim_n ints in [0, p), row convention (f(v) = v F): the
    nullspace of the equations A_m F - F A_n = 0, one per color and
    entry (i, j), over the unknowns F[k][l] at column k * dim_n + l."""
    if m.field.p != n.field.p:
        raise ValueError("modules live over different prime fields")
    ops = m.ops
    dm, dn = m.dim, n.dim
    if dm == 0 or dn == 0:
        return []
    am, an = m.dense_actions(), n.dense_actions()
    eqs = []
    for c in sorted(set(am) | set(an)):
        a, b = am.get(c), an.get(c)
        for i in range(dm):
            for j in range(dn):
                row = [0] * (dm * dn)
                if a:
                    for k in range(dm):
                        row[k * dn + j] += a[i][k]
                if b:
                    for l in range(dn):
                        row[i * dn + l] -= b[l][j]
                eqs.append(row)
    ns = ops.nullspace(ops.pack(eqs, dm * dn), dm * dn)
    return [[f[k * dn:(k + 1) * dn] for k in range(dm)]
            for f in ops.unpack(ns, dm * dn)]


# -- minimal submodules and composition factors ------------------------------

def _eigen_leaves(module):
    """Common-eigenvector subspaces: maximal subspaces on which every
    color acts as a scalar.  Every 1-dim invariant line lies in one."""
    ops = module.ops
    n = module.dim
    full = full_submodule(module)
    leaves = [(full.basis, full.pivots)]
    for c in module.colors:
        new = []
        for basis, piv in leaves:
            k = len(basis)
            images = [module.act(row, c) for row in basis]
            for lam in range(module.field.p):
                # the lam-eigenvectors of c: kernel of (action - lam)
                target = tuple(ops.add(img, row, -lam)
                               for img, row in zip(images, basis))
                ker = ops.left_nullspace(target, k, n)
                if len(ker) == 0:
                    continue
                rows = [ops.vec_mat(x, basis, k) for x in ker]
                sub_basis, sub_piv = ops.rref(rows, n)
                new.append((sub_basis, sub_piv))
        leaves = new
        if not leaves:
            break
    return leaves


def _find_one_minimal(module):
    """Some minimal (simple) submodule of a nonzero module without a
    coordinate eigenline (`_coordinate_eigenline`, which
    `_factor_series` tries first).

    Fast path: the common-eigenvector lines.  Fallback: scan all cyclic
    submodules (budgeted); a smallest one is minimal.
    """
    leaves = _eigen_leaves(module)
    if leaves:
        basis, _ = min(leaves)
        return Submodule(module, *module.ops.rref(basis[:1], module.dim))
    cyclics = _distinct_cyclic(module)
    return min(cyclics, key=Submodule.key)


def _coordinate_eigenline(module):
    """The lowest i whose unit vector e_i every color maps to a multiple
    of itself, with the nonzero multiples as (color, 1 x 1 matrix)
    pairs, colors sorted; None when there is no such i.  e_i A is row i
    of A, so this reads the rows: e_i spans a submodule exactly when
    row i of every action lies on its line."""
    ops, n, colors = module.ops, module.dim, module.colors
    for i in range(n):
        unit = (ops.unit_vec(i, n),), (i,)
        scalars = []
        for c in colors:
            s = ops.coords(module.actions[c][i], *unit, n)
            if s is None:
                break
            if not ops.is_zero(s):
                scalars.append((c, (s,)))
        else:
            return i, tuple(scalars)
    return None


def minimal_submodules(module):
    """All minimal nonzero submodules (budgeted full scan).

    Minimal submodules are cyclic, and minimality among the distinct
    cyclic submodules is the same as minimality among all submodules.
    """
    return list(_cached(module, "minimal", _minimal_cyclic))


def _minimal_cyclic(module):
    cyclics = sorted(_distinct_cyclic(module), key=Submodule.key)
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


def composition_factors(module):
    """Multiset of simple factors, peeled minimal submodule by minimal
    submodule.  Returns (factor module, pivot label) pairs."""
    return list(_memo(module, "factors", _factor_series, _relabel_factors))


def _factor_series(module):
    """The composition series without labels, each factor stored as a
    subquotient is: the indices into `module.basis_labels` of its basis
    labels and its (color, matrix) pairs (the peel runs on a copy
    labelled by index).

    Each step peels the lowest coordinate eigenline, read off the rows
    (`_coordinate_eigenline`; in a quiver module it is a sink vertex, so
    a DAG plus loops is peeled sink by sink, each factor labelled by its
    own vertex): the factor is that line's scalars, and the quotient
    deletes coordinate i from every action (colors that become zero
    are dropped), which is what `quotient_module` gives, with no
    nullspace or quotient built.  A step without one peels
    `_find_one_minimal`'s submodule.
    """
    current = indexed_copy(module)
    out = []
    while current.dim > 0:
        line = _coordinate_eigenline(current)
        if line is None:
            k = _find_one_minimal(current)
            factor = submodule_as_module(k)
            out.append((factor.basis_labels, tuple(factor.actions.items())))
            current = quotient_module(current, k)
        else:
            i, scalars = line
            out.append(((current.basis_labels[i],), scalars))
            current = _without_coordinate(current, i)
    return tuple(out)


def _without_coordinate(module, i):
    """The quotient of the module by the invariant line of e_i: row and
    column i deleted from every action, basis label i dropped, and the
    colors that become zero left out."""
    ops, labels = module.ops, module.basis_labels
    actions = ((c, ops.delete_coordinate(module.actions[c], i))
               for c in module.colors)
    return FdModule(module.field, module.dim - 1, labels[:i] + labels[i + 1:],
                    {c: a for c, a in actions if not all(map(ops.is_zero, a))})


def indexed_copy(module):
    """The module with basis labels 0, 1, ..., dim - 1: answers computed
    on it name basis lines by index, to be relabelled per module."""
    return _interned(module.field, range(module.dim), module.actions)


def _relabel_factors(module, series):
    factors = (_labelled_module(module, rows) for rows in series)
    return tuple((f, f.basis_labels[0]) for f in factors)


def is_essential(sub, module):
    """True iff sub meets every nonzero submodule, i.e. contains every
    minimal submodule."""
    if module.dim == 0:
        return True
    if sub.dim == 0:
        return False
    return all(sub.contains(k) for k in minimal_submodules(module))


@dataclass
class StructureReport:
    is_simple: bool
    composition_length: int
    socle: Submodule


def structure_report(module):
    """Exact structural summary, with no lattice walk: the socle is the
    sum of the minimal submodules, and the composition length is the
    number of composition factors (Jordan-Hoelder).  The minimal
    submodules come first, so a module past the budget's seed count is
    refused by their scan.  A module whose one minimal submodule is
    the whole module is simple, of length 1 and its own socle, with no
    composition series built."""
    mins = minimal_submodules(module)
    if len(mins) == 1 and mins[0].dim == module.dim:
        return StructureReport(is_simple=True, composition_length=1,
                               socle=mins[0])
    length = len(composition_factors(module))
    socle = zero_submodule(module)
    for s in mins:
        socle = sum_submodules(socle, s)
    return StructureReport(is_simple=length == 1,
                           composition_length=length, socle=socle)
