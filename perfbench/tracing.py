"""Outside-in tracing of grobcell's public functions.

The tracer wraps module attributes that grobcell looks up at call time (for
example ``grobcell.canonical.buchberger`` or ``grobcell.cli.psi``), so no
file of the program changes.  Each call becomes a span with a name, a start,
an end and a parent.  A span's self time is its duration minus the time its
child spans cover; calls under different parents are also reported with an
``.in_<parent>`` suffix.  Work counts that need the call's arguments or
result are taken by small hooks; anything costly is deferred until the pass
is over, outside every span.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# Public functions timed per layer, as "<module>.<function>" under grobcell.
TRACED = (
    "cli.run",
    "hilburch.psi",
    "hilburch.verify_groebner_property",
    "hilburch.sample",
    "hilburch.param_matrix_from_json",
    "hilburch.param_matrix_to_json",
    "hilburch.check_membership",
    "groebner.buchberger",
    "groebner.divide",
    "groebner.s_polynomial",
    "groebner.initial_ideal",
    "canonical.canonicalize",
    "canonical.extract_syzygies",
    "canonical.reduction_move",
    "poly.parse_poly",
    "poly.format_poly",
    "betti.betti_numbers",
    "projective.psi_bar",
)

# The label a span gives its children's ``.in_<label>`` suffix.
_LABEL = {"cli.run": "cli"}


def _label(name: str) -> str:
    return _LABEL.get(name, name.split(".", 1)[1])


# Keys that take() computes besides the per-span ones.
DERIVED = (
    "groebner.spairs_reduced",
    "groebner.spairs_to_zero",
    "groebner.useful_pair_frac",
    "hilburch.psi.out_terms",
    "groebner.buchberger.out_len",
    "field.coeff_bits_max",
)


def expected_keys() -> set:
    """Every key take() can produce: each traced function's self time and
    calls, overall and under each traced parent, and the derived keys."""
    names = set(DERIVED)
    for name in TRACED:
        for key in [name] + [f"{name}.in_{_label(parent)}" for parent in TRACED]:
            names.update((key + ".self_s", key + ".calls"))
    return names


def coeff_bits(c) -> int:
    """Largest bit length of a coefficient's numerator or denominator; a
    prime-field element counts its representative in [0, p)."""
    if hasattr(c, "numerator"):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return int(c.v).bit_length()


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, parent index or -1, start, end]
        self.stack: list = []
        self.saved: list = []  # (module, attribute, original)
        self.outputs: list = []  # (name, result) kept for post-pass counts
        self.last_spoly = None
        self.spairs_to_zero = 0

    # -- installing and removing the wrappers -----------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "grobcell" or n.startswith("grobcell.")) and m is not None]
        for name in TRACED:
            mod, func = name.split(".")
            fn = getattr(importlib.import_module("grobcell." + mod), func)
            wrapped = self._wrap(fn, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self.saved.append((module, attr, fn))
                        setattr(module, attr, wrapped)

    def restore(self):
        for module, attr, fn in reversed(self.saved):
            setattr(module, attr, fn)
        for module, attr, fn in self.saved:
            if getattr(module, attr) is not fn:
                raise RuntimeError(f"{module.__name__}.{attr} was not restored")
        self.saved.clear()

    def _wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        hook = {
            "groebner.s_polynomial": self._on_spoly,
            "groebner.divide": self._on_divide,
            "hilburch.psi": self._keep,
            "groebner.buchberger": self._keep,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(name, span, args, result)
            return result

        return traced

    # -- hooks ------------------------------------------------------------

    def _on_spoly(self, name, span, args, result):
        self.last_spoly = result

    def _on_divide(self, name, span, args, result):
        if args[0] is self.last_spoly:
            self.last_spoly = None
            if result.remainder.is_zero():
                self.spairs_to_zero += 1

    def _keep(self, name, span, args, result):
        self.outputs.append((name, result))

    # -- per-pass summary -------------------------------------------------

    def take(self) -> dict:
        """Summarize the spans recorded since the last call and reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for idx, (name, parent, t0, t1) in enumerate(spans):
            self_s = (t1 - t0) - child[idx]
            keys = [name]
            if parent >= 0:
                keys.append(f"{name}.in_{_label(spans[parent][0])}")
            for key in keys:
                add(key + ".self_s", self_s)
                add(key + ".calls", 1)
        out["trace.self_sum_s"] = sum(
            (t1 - t0) - child[idx] for idx, (_, _, t0, t1) in enumerate(spans)
        )

        reduced = out.get("groebner.s_polynomial.in_buchberger.calls", 0)
        out["groebner.spairs_reduced"] = reduced
        out["groebner.spairs_to_zero"] = self.spairs_to_zero
        out["groebner.useful_pair_frac"] = (
            1 - self.spairs_to_zero / reduced if reduced else 0.0
        )
        bits = 0
        for name, result in self.outputs:
            polys = result.polys if name == "hilburch.psi" else result.elements
            if name == "hilburch.psi":
                add("hilburch.psi.out_terms", sum(len(p.terms) for p in polys))
            else:
                add("groebner.buchberger.out_len", len(polys))
            for p in polys:
                for c in p.terms.values():
                    bits = max(bits, coeff_bits(c))
        out["field.coeff_bits_max"] = bits

        spans.clear()
        self.outputs.clear()
        self.last_spoly = None
        self.spairs_to_zero = 0
        return out
