"""Per-layer tracing of the `amalgams` package, installed from outside.

Each traced public function is replaced, in every `amalgams` module that
holds a binding to it (`from .gb import buchberger` copies the name into
`amalgam`, `homology` and `ring`), by a wrapper that records a span.
Spans sit on a stack, so a span's self time is its duration minus the
durations of the traced spans it encloses.  Hot `poly`/`modules` helpers
get a counter only: a timer would cost more than the work it times.
A name that no longer exists is reported as absent instead of failing.
"""

from __future__ import annotations

import inspect
import sys
import time

PACKAGE = "amalgams"

# (layer, metric name, attribute path in the layer module, report incl_s)
SPANS = [
    ("cli", "parse_input", "parse_input", True),
    ("amalgam", "amalgam_present", "amalgam_present", True),
    ("amalgam", "verify_presentation", "verify_presentation", True),
    ("amalgam", "trivial_extension", "trivial_extension", True),
    ("amalgam", "hom_A_into_R", "hom_A_into_R", True),
    ("gb", "buchberger", "buchberger", False),
    ("gb", "eliminate", "eliminate", True),
    ("gb", "intersect", "intersect", True),
    ("gb", "colon", "colon", True),
    ("gb", "kernel_of_map", "kernel_of_map", True),
    ("gb", "normal_form", "normal_form", False),
    ("ring", "PresentedRing", "PresentedRing.__init__", False),
    ("ring", "standard_monomials", "PresentedRing.standard_monomials", False),
    ("series", "first_difference", "HilbertSeries.first_difference", False),
    ("series", "coefficient", "HilbertSeries.coefficient", False),
    ("modules", "module_groebner", "module_groebner", False),
    ("modules", "syzygies", "syzygies", True),
    ("modules", "minimal_generators", "minimal_generators", True),
    ("modules", "module_member", "module_member", False),
    ("modules", "minimal_presentation", "FPModule.minimal_presentation", True),
    ("homology", "free_resolution", "free_resolution", True),
    ("homology", "hilbert_series", "hilbert_series", True),
    ("homology", "krull_dim", "krull_dim", False),
    ("homology", "ext_module", "ext_module", True),
    ("homology", "canonical_module", "canonical_module", True),
    ("homology", "annihilator", "annihilator", False),
    ("homology", "classify", "classify", True),
    ("poly", "parse_poly", "parse_poly", False),
    ("finite", "FiniteAmalgam", "FiniteAmalgam.__init__", False),
    ("finite", "all_ideals", "all_ideals", False),
    ("finite", "enumerate_primes", "enumerate_primes", True),
    ("finite", "classify_primes", "classify_primes", True),
    ("finite", "find_isomorphism", "find_isomorphism", False),
]

# (layer, metric name, attribute path): call counters without a timer.
# Every sum and difference of polynomials runs Polynomial.__add__ once.
COUNTERS = [
    ("modules", "leading_mod_term", "leading_mod_term"),
    ("modules", "term_mul", "ModVec.term_mul"),
    ("poly", "leading_term", "leading_term"),
    ("poly", "mul", "Polynomial.__mul__"),
    ("poly", "addsub", "Polynomial.__add__"),
]

LAYERS = sorted({layer for layer, *_ in SPANS + COUNTERS})


def _ring_key(ring):
    return (ring.p, tuple(ring.names), tuple(ring.weights))


def _poly_key(f):
    return tuple(sorted(f.terms.items()))


def _polys_key(polys):
    return tuple(sorted(_poly_key(f) for f in polys))


def _buchberger_key(call):
    basis = call.arguments["basis"]
    return (_ring_key(basis.ring), repr(call.arguments["order"]), _polys_key(basis.gens))


def _resolution_key(call):
    obj = call.arguments["obj"]
    kind = type(obj).__name__
    if kind == "PresentedRing":
        return (kind, _ring_key(obj.ambient), _polys_key(obj.defining.elements))
    if kind == "IdealHandle":
        ring = obj.ring
        return (kind, _ring_key(ring.ambient), _polys_key(ring.defining.elements),
                _polys_key(obj.generators))
    if kind == "FPModule":
        rels = tuple(sorted(tuple(sorted(r.terms.items())) for r in obj.relations))
        return (kind, _ring_key(obj.ring), tuple(obj.twists), rels)
    return (kind, id(obj))


def _finite_ring_key(call):
    R = call.arguments["R"]
    return (R.n, R.add.tobytes(), R.mul.tobytes())


# metric -> canonical key of a call's input; the share of calls whose key
# was already seen in the traced pass is reported as `.repeat_ratio`.
REPEAT_KEYS = {
    "gb.buchberger": _buchberger_key,
    "homology.free_resolution": _resolution_key,
    "finite.enumerate_primes": _finite_ring_key,
}


class _Span:
    __slots__ = ("calls", "self_s", "incl_s", "active")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.active = 0  # recursion depth, so incl_s counts outer calls only


class Tracer:
    """Installs the wrappers, accumulates per-layer metrics, uninstalls."""

    def __init__(self):
        self.spans = {}
        self.counts = {}
        self.absent = []
        self.seen = {name: set() for name in REPEAT_KEYS}
        self.repeats = {name: 0 for name in REPEAT_KEYS}
        self.errors = {layer: {} for layer in LAYERS}
        self.work = {
            "gb.buchberger.in_gens": 0,
            "gb.buchberger.out_elems": 0,
            "modules.module_groebner.out_vecs": 0,
            "modules.syzygies.out_vecs": 0,
            "modules.minimal_generators.offered": 0,
            "modules.minimal_generators.kept": 0,
        }
        self._stack = []
        self._patches = []

    # -- installation -------------------------------------------------------

    def install(self):
        for layer, name, path, _ in SPANS:
            self._wrap(layer, name, path, self._span_wrapper)
        for layer, name, path in COUNTERS:
            self._wrap(layer, name, path, self._count_wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, layer, name, path, make):
        metric = f"{layer}.{name}"
        module = sys.modules.get(f"{PACKAGE}.{layer}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if not inspect.isfunction(original):
            self.absent.append(metric)
            return
        wrapper = make(layer, metric, original)
        if owner_name:  # a method: rebind every alias in the class
            targets = [owner]
        else:  # a function: rebind it in every module that imported it
            targets = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._patches.append((target, key, original))
                    setattr(target, key, wrapper)

    def _count_wrapper(self, layer, metric, fn):
        counts = self.counts
        counts[metric] = 0

        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, layer, metric, fn):
        span = self.spans[metric] = _Span()
        stack = self._stack
        errors = self.errors[layer]
        signature = inspect.signature(fn)
        key_of = REPEAT_KEYS.get(metric)
        before = self._before(metric, signature, key_of)
        after = self._after(metric)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span.calls += 1
            if before is not None:
                before(args, kwargs)
            child = [0.0]
            stack.append(child)
            span.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[id(exc)] = exc  # one exception counts once per layer
                raise
            finally:
                elapsed = clock() - start
                span.active -= 1
                stack.pop()
                span.self_s += elapsed - child[0]
                if not span.active:
                    span.incl_s += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(result)
            return result

        return traced

    def _before(self, metric, signature, key_of):
        """Hook run on a call's bound arguments before the call, or None."""
        work = self.work
        hooks = []
        if key_of is not None:
            seen = self.seen[metric]
            repeats = self.repeats

            def repeat(call):
                key = key_of(call)
                if key in seen:
                    repeats[metric] += 1
                else:
                    seen.add(key)

            hooks.append(repeat)
        if metric == "gb.buchberger":
            def in_gens(call):
                work["gb.buchberger.in_gens"] += len(call.arguments["basis"].gens)

            hooks.append(in_gens)
        if metric == "modules.minimal_generators":
            def offered(call):
                work["modules.minimal_generators.offered"] += len(call.arguments["vecs"])

            hooks.append(offered)
        if not hooks:
            return None

        def run(args, kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            for hook in hooks:
                hook(call)

        return run

    def _after(self, metric):
        """Hook run on a call's result, or None."""
        work = self.work
        if metric == "gb.buchberger":
            def count(result):
                work["gb.buchberger.out_elems"] += len(result.elements)
        elif metric in ("modules.module_groebner", "modules.syzygies"):
            def count(result):
                work[f"{metric}.out_vecs"] += len(result)
        elif metric == "modules.minimal_generators":
            def count(result):
                work["modules.minimal_generators.kept"] += len(result)
        else:
            return None
        return count

    # -- report -------------------------------------------------------------

    def metrics(self):
        """Every per-layer metric as name -> (value, unit); absent names are 0."""
        out = {}
        for layer, name, _, composite in SPANS:
            metric = f"{layer}.{name}"
            span = self.spans.get(metric, _Span())
            out[f"{metric}.calls"] = (span.calls, "count")
            out[f"{metric}.self_s"] = (span.self_s, "s")
            if composite:
                out[f"{metric}.incl_s"] = (span.incl_s, "s")
        for layer, name, _ in COUNTERS:
            metric = f"{layer}.{name}"
            out[f"{metric}.calls"] = (self.counts.get(metric, 0), "count")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (len(self.errors[layer]), "count")
        for key in ("gb.buchberger.in_gens", "gb.buchberger.out_elems",
                    "modules.module_groebner.out_vecs", "modules.syzygies.out_vecs"):
            out[key] = (self.work[key], "count")
        for metric in REPEAT_KEYS:
            calls = self.spans[metric].calls if metric in self.spans else 0
            out[f"{metric}.repeat_ratio"] = (
                self.repeats[metric] / calls if calls else 0.0, "ratio")
        offered = self.work["modules.minimal_generators.offered"]
        out["modules.minimal_generators.keep_ratio"] = (
            self.work["modules.minimal_generators.kept"] / offered if offered else 0.0,
            "ratio")
        return out

