"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps public functions of the ``padicdyn`` modules in
place, at every module that imported them by name, so calls made through
``from .maps import normalize_integral`` are seen too.  A span records
(name, start, end, parent, query id) and is kept in memory; ``report()``
turns the spans into calls, self time (span time minus the time of its
child spans) and the few size and share figures the README lists.  The
hottest functions (``vp``, ``is_prime``) only count calls.  ``uninstall()``
puts every original back.
"""

from __future__ import annotations

import sys
import time

# functions that get a span, as (module, attribute)
SPANNED = (
    ("cli", "main"),
    ("maps", "normalize_integral"),
    ("maps", "reduce_map"),
    ("maps", "iterate_map"),
    ("maps", "conjugate_map"),
    ("maps", "eval_map"),
    ("qpolys", "discriminant"),
    ("qpolys", "det_bareiss"),
    ("qpolys", "binary_form_resultant"),
    ("qpolys", "QPoly.gcd"),
    ("finitefield", "fq_factor"),
    ("finitefield", "FqField.__init__"),
    ("finitefield", "fq_extension"),
    ("finitefield", "iterate_forms"),
    ("finitefield", "form_is_squarefree"),
    ("reduction", "postcritical_set"),
    ("reduction", "pushforward"),
    ("reduction", "condition2_check"),
    ("reduction", "strict_good_reduction"),
    ("towers", "fiber_polynomial"),
    ("towers", "fiber_report"),
    ("towers", "frobenius_cycle_type"),
    ("towers", "preimage_tree"),
    ("towers", "shift_divisibility_check"),
    ("orbits", "forward_orbit"),
    ("orbits", "orbital_report"),
    ("orbits", "moduli_search"),
)
COUNTED = (("padics", "vp"), ("padics", "is_prime"))

# functions whose distinct arguments are tallied for a distinct_ratio
DISTINCT = {
    "maps.reduce_map",
    "maps.iterate_map",
    "finitefield.fq_factor",
    "finitefield.FqField.init",
}


def metric_name(module, attr):
    return f"{module}.{attr.replace('.__init__', '.init')}"


def _key(args, kwargs):
    return args, tuple(sorted(kwargs.items()))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, query id]
        self.counts = {f"{metric_name(m, a)}.calls": 0 for m, a in COUNTED}
        self.distinct = {name: set() for name in DISTINCT}
        self.sizes = {}
        self.query_id = None
        self._stack = []
        self._patches = []

    # -- installation -----------------------------------------------------------

    def install(self):
        pkg = sys.modules["padicdyn"]
        modules = [m for name, m in sys.modules.items() if name.startswith("padicdyn.")]
        for module, attr in SPANNED + COUNTED:
            home = sys.modules[f"padicdyn.{module}"]
            name = metric_name(module, attr)
            counted = (module, attr) in COUNTED
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, original, counted))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, counted)
            for mod in modules + [pkg]:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, counted):
        if counted:
            counts, key = self.counts, f"{name}.calls"

            def counting(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counting

        spans, stack, clock = self.spans, self._stack, time.perf_counter
        seen = self.distinct.get(name)

        def spanned(*args, **kwargs):
            if seen is not None:
                seen.add(_key(args[1:] if name.endswith(".init") else args, kwargs))
            parent = stack[-1] if stack else -1
            span = [name, clock(), None, parent, self.query_id]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            self._measure(name, args, result)
            return result

        return spanned

    # -- sizes ------------------------------------------------------------------

    def _max(self, key, value):
        if value > self.sizes.get(key, 0):
            self.sizes[key] = value

    def _add(self, key, value):
        self.sizes[key] = self.sizes.get(key, 0) + value

    def _measure(self, name, args, result):
        if name == "qpolys.discriminant":
            poly = args[0]
            self._max("qpolys.discriminant.max_degree", poly.degree)
            bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs)
            self._max("qpolys.discriminant.max_bits", bits)
        elif name == "finitefield.fq_factor":
            self._max("finitefield.fq_factor.max_degree", args[0].degree)
        elif name == "finitefield.fq_extension":
            self._max("finitefield.fq_extension.max_q", result.q)
        elif name == "towers.preimage_tree":
            self._max("towers.preimage_tree.max_q", result.p**result.m)
        elif name == "maps.eval_map":
            self._max("maps.orbit_height_bits", result.height_bits())
        elif name == "reduction.postcritical_set":
            self._add("reduction.pc_points", len(result.points))
            for q in result.points:
                self._max("reduction.pc_max_degree", q.degree)
        elif name == "orbits.moduli_search":
            self._add("orbits.moduli_search.conjugates_tried", result.tried)

    # -- report -----------------------------------------------------------------

    def report(self, scale: dict) -> dict:
        """Metric name -> value, over every span recorded.

        ``scale`` maps a query id to the factor that turns its wall seconds
        into ref-s, so self times are reference-scaled like the queries.
        """
        calls, total, child = {}, {}, {}
        for name, start, end, parent, qid in self.spans:
            span = (end - start) * scale[qid]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + span
            if parent >= 0:
                pname = self.spans[parent][0]
                child[pname] = child.get(pname, 0.0) + span
        out = dict(self.counts)
        for module, attr in SPANNED:
            name = metric_name(module, attr)
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = total.get(name, 0.0) - child.get(name, 0.0)
        for name, seen in self.distinct.items():
            out[f"{name}.distinct_ratio"] = len(seen) / calls[name] if calls.get(name) else 0.0
        for key in SIZE_METRICS:
            out[key] = self.sizes.get(key, 0)
        return out


SIZE_METRICS = (
    "qpolys.discriminant.max_degree",
    "qpolys.discriminant.max_bits",
    "finitefield.fq_factor.max_degree",
    "finitefield.fq_extension.max_q",
    "towers.preimage_tree.max_q",
    "maps.orbit_height_bits",
    "reduction.pc_points",
    "reduction.pc_max_degree",
    "orbits.moduli_search.conjugates_tried",
)
