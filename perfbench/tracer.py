"""Per-layer spans around calls into atomcat's public functions.

The tracer wraps, from outside the package, every public module-level
function of each layer module, the `F2Ops`/`FpOps` methods (the `linalg`
facade) and `ColoredQuiver.loops_at`.  Modules such as `atomspec`,
`harness`, `predictor` and `linmod` bind functions of other layers with
`from .x import f`, so every binding of a wrapped function anywhere in
the package is replaced, not only the defining module's attribute.

A span's self time is its duration minus the durations of the spans it
encloses.  Per-layer self times plus the time spent outside any span
add up to the traced wall time.  Counters are pure counts of calls and
results, so for a fixed input list they repeat exactly.
"""

import inspect
import sys
import time
from collections import Counter

LAYERS = ("bitmat", "modp", "linalg", "linmod", "atomspec", "ordertop",
          "quiver", "generators", "predictor", "harness")

_DONE = object()


def _lattice_members(tr, args, result):
    tr.counts["linmod.lattice_members"] += len(result)


def _minimal_found(tr, args, result):
    tr.counts["linmod.minimal_found"] += len(result)


def _iso_verdict(tr, args, result):
    tr.counts[f"linmod.is_isomorphic.{result.value}"] += 1


def _canonical_key(tr, args, result):
    key = args[0].key()
    if key in tr.canonical_seen:
        tr.counts["atomspec.canonical_repeats"] += 1
    tr.canonical_seen.add(key)


def _opens(tr, args, result):
    tr.counts["atomspec.opens_enumerated"] += len(result.opens.opens)


def _quiver_arrows(tr, args, result):
    tr.counts["quiver.make_quiver.arrows"] += len(result.arrows)


HOOKS = {
    "linmod.submodule_lattice": _lattice_members,
    "linmod.minimal_submodules": _minimal_found,
    "linmod.is_isomorphic": _iso_verdict,
    "atomspec.canonical_simple_form": _canonical_key,
    "atomspec.spectrum": _opens,
    "quiver.make_quiver": _quiver_arrows,
}


class Tracer:
    """Installs wrappers into the imported atomcat modules; `uninstall`
    puts every original binding back."""

    def __init__(self):
        self.counts = Counter()            # result counters (see HOOKS)
        self.canonical_seen = set()
        self._stats = {}   # "layer.name" -> [calls, self s, total s]
        self._stack = []                   # child seconds of each open span
        self._generators_depth = 0
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        hook = HOOKS.get(key)
        stat = self._stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # the work happens at each next(), inside the consumer's span
            def wrapper(*args, **kwargs):
                stat[0] += 1
                it = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = clock()
                    try:
                        item = next(it, _DONE)
                    finally:
                        dur = clock() - t0
                        stat[1] += dur - stack.pop()
                        stat[2] += dur
                        if stack:
                            stack[-1] += dur
                    if item is _DONE:
                        return
                    yield item
        elif hook is None and layer != "generators":
            def wrapper(*args, **kwargs):
                stat[0] += 1
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stat[1] += dur - stack.pop()
                    stat[2] += dur
                    if stack:
                        stack[-1] += dur
        else:
            def wrapper(*args, **kwargs):
                stat[0] += 1
                stack.append(0.0)
                if layer == "generators":
                    self._generators_depth += 1
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stat[1] += dur - stack.pop()
                    stat[2] += dur
                    if stack:
                        stack[-1] += dur
                    if layer == "generators":
                        self._generators_depth -= 1
                if hook is not None:
                    hook(self, args, result)
                if layer == "generators" and not self._generators_depth:
                    self._generated(result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _generated(self, result):
        # outermost generator call: count the truncation it materialized
        quiver = getattr(result, "quiver", None)
        if quiver is not None:
            self.counts["generators.vertices"] += len(quiver.vertices)
            self.counts["generators.arrows"] += len(quiver.arrows)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # -- install / uninstall -------------------------------------------------

    def install(self):
        from atomcat import linalg, quiver
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"atomcat.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(layer, name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "atomcat" and not modname.startswith("atomcat."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, name, wrapped[obj])
        for cls in (linalg.F2Ops, linalg.FpOps):
            for name, obj in list(vars(cls).items()):
                if inspect.isfunction(obj) and not name.startswith("_"):
                    self._set(cls, name,
                              self._wrap("linalg", f"{cls.__name__}.{name}",
                                         obj))
        self._set(quiver.ColoredQuiver, "loops_at",
                  self._wrap("quiver", "loops_at",
                             quiver.ColoredQuiver.loops_at))
        return self

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results -------------------------------------------------------------

    def calls(self, key):
        return self._stats.get(key, (0, 0.0, 0.0))[0]

    def _layer_sum(self, layer, index):
        prefix = layer + "."
        return sum(st[index] for k, st in self._stats.items()
                   if k.startswith(prefix))

    def metrics(self, wall_s):
        """Per-layer metric values for a traced run of `wall_s` seconds."""
        c, n = self.calls, self.counts
        closures = (c("linalg.F2Ops.cyclic_closure")
                    + c("linalg.FpOps.cyclic_closure"))
        canon = c("atomspec.canonical_simple_form")
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self._layer_sum(layer, 1), "s")
            out[f"{layer}.calls"] = (self._layer_sum(layer, 0), "count")
        for key in ("bitmat.cyclic_closure", "bitmat.rref", "modp.rref",
                    "linmod.minimal_submodules",
                    "atomspec.canonical_simple_form", "quiver.loops_at",
                    "predictor.crosscheck"):
            out[f"{key}.calls"] = (c(key), "count")
        for key in ("linmod.lattice_members", "linmod.is_isomorphic.yes",
                    "linmod.is_isomorphic.no",
                    "linmod.is_isomorphic.undecided",
                    "atomspec.opens_enumerated", "quiver.make_quiver.arrows",
                    "generators.vertices", "generators.arrows"):
            out[key] = (n[key], "count")
        out["linmod.seed_yield"] = (
            n["linmod.minimal_found"] / closures if closures else 0.0, "ratio")
        canon_stat = self._stats.get("atomspec.canonical_simple_form",
                                     (0, 0.0, 0.0))
        out["atomspec.canonical_simple_form.self_s"] = (canon_stat[1], "s")
        # with the GL(k, p) tables it builds through other layers
        out["atomspec.canonical_simple_form.total_s"] = (canon_stat[2], "s")
        out["atomspec.canonical_repeat_ratio"] = (
            n["atomspec.canonical_repeats"] / canon if canon else 0.0, "ratio")
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.unattributed_s"] = (
            wall_s - sum(st[1] for st in self._stats.values()), "s")
        return out

    def top_functions(self, k=12):
        """Largest self times by function, for the run's detail record:
        [name, self s, total s, calls]."""
        ranked = sorted(self._stats.items(), key=lambda kv: -kv[1][1])[:k]
        return [[name, round(st[1], 6), round(st[2], 6), st[0]]
                for name, st in ranked]
