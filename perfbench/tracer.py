"""Per-layer tracing of ncqm from outside the program.

The tracer replaces public functions of each module with wrappers while a
traced run lasts.  Boundary functions get a span: call count, inclusive
time and self time (inclusive minus the time of spans nested inside it).
The hot scalar and polynomial methods get count-only wrappers, because a
span per arithmetic operation would swamp the run; their time is charged
to the self time of the span that called them.  Spans are aggregated in
memory by name rather than stored one by one.

Every binding of a wrapped function is patched: the defining namespace,
``from .x import y`` aliases in the other ncqm modules and the package,
and class-level aliases such as ``__radd__ = __add__``.  ``remove``
restores each of them.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# (module, attribute path, span name): public boundaries timed as spans
SPANS = (
    ("ncqm.cli", "ProblemFile.parse", "cli.parse"),
    ("ncqm.cli", "run_task", "cli.run_task"),
    ("ncqm.star", "StarProduct.__init__", "star.build"),
    ("ncqm.star", "StarProduct.star", "star.star"),
    ("ncqm.star", "StarProduct.star_prime", "star.star_prime"),
    ("ncqm.star", "StarProduct.left_multiplication_operator", "star.left_mult"),
    ("ncqm.star", "gauge_b", "star.gauge_b"),
    ("ncqm.star", "trace", "star.trace"),
    ("ncqm.exact_algebra", "gaussian_integrate", "exact_algebra.integrate"),
    ("ncqm.poisson", "jacobi_defect", "poisson.jacobi"),
    ("ncqm.poisson", "build_gamma", "poisson.build_gamma"),
    ("ncqm.poisson", "verify_darboux", "poisson.verify_darboux"),
    ("ncqm.operators", "DiffOperator.compose", "operators.compose"),
    ("ncqm.operators", "build_xhat", "operators.build_xhat"),
    ("ncqm.operators", "build_gamma1", "operators.build_gamma1"),
    ("ncqm.qm_examples", "build_fuzzy_oscillator", "qm_examples.oscillator"),
    ("ncqm.qm_examples", "free_particle_check", "qm_examples.free_particle"),
)

# the span the benchmark itself opens around each ncqm.cli.main call
VERDICT = "cli.verdict"

MODULES = ("cli", "star", "exact_algebra", "poisson", "operators", "qm_examples")


def _ncqm_namespaces():
    """Every module namespace of the ncqm package and every class defined
    in one of them."""
    for name, mod in list(sys.modules.items()):
        if name != "ncqm" and not name.startswith("ncqm."):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value


def bindings(func):
    """(owner, attribute, raw value) for every binding of ``func``."""
    out = []
    for owner in _ncqm_namespaces():
        for attr, value in list(vars(owner).items()):
            raw = value.__func__ if isinstance(value, (staticmethod, classmethod)) else value
            if raw is func:
                out.append((owner, attr, value))
    return out


def _resolve(module: str, path: str):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj.__func__ if isinstance(obj, staticmethod) else obj


class Tracer:
    """Counts and span times for one traced run."""

    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.peak = Counter()
        self._children = [0.0]
        self._patched = []  # (owner, attribute, original value)
        self.originals = []
        self.wrappers = []

    # -- spans ---------------------------------------------------------------

    def enter(self):
        self._children.append(0.0)
        return perf_counter()

    def leave(self, name: str, started: float):
        dt = perf_counter() - started
        nested = self._children.pop()
        self._children[-1] += dt
        self.calls[name] += 1
        self.total[name] += dt
        self.self_time[name] += dt - nested

    def _span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            started = self.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(name, started)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # -- count-only wrappers for the arithmetic kernel ---------------------------

    def _hot(self, ea):
        calls, peak = self.calls, self.peak
        gr_mul, gr_add = ea.GaussianRational.__mul__, ea.GaussianRational.__add__
        tp_mul, tp_add = ea.ThetaPoly.__mul__, ea.ThetaPoly.__add__
        tp_dx, tp_dp = ea.ThetaPoly.diff_x, ea.ThetaPoly.diff_p

        def scalar_mul(a, b):
            calls["exact_algebra.scalar_mul"] += 1
            return gr_mul(a, b)

        def scalar_add(a, b):
            calls["exact_algebra.scalar_add"] += 1
            return gr_add(a, b)

        def poly_mul(a, b):
            calls["exact_algebra.poly_mul"] += 1
            out = tp_mul(a, b)
            terms = getattr(out, "terms", None)
            if terms:
                if len(terms) > peak["exact_algebra.poly_peak_terms"]:
                    peak["exact_algebra.poly_peak_terms"] = len(terms)
                bits = max(max(c.re.numerator.bit_length(), c.re.denominator.bit_length(),
                               c.im.numerator.bit_length(), c.im.denominator.bit_length())
                           for c in terms.values())
                if bits > peak["exact_algebra.peak_coeff_bits"]:
                    peak["exact_algebra.peak_coeff_bits"] = bits
            return out

        def poly_add(a, b):
            calls["exact_algebra.poly_add"] += 1
            calls["exact_algebra.poly_add_terms_copied"] += len(a.terms)
            out = tp_add(a, b)
            if len(out.terms) > peak["exact_algebra.poly_peak_terms"]:
                peak["exact_algebra.poly_peak_terms"] = len(out.terms)
            return out

        def diff_x(a, i):
            calls["exact_algebra.poly_diff"] += 1
            return tp_dx(a, i)

        def diff_p(a, i):
            calls["exact_algebra.poly_diff"] += 1
            return tp_dp(a, i)

        return [(gr_mul, scalar_mul), (gr_add, scalar_add), (tp_mul, poly_mul),
                (tp_add, poly_add), (tp_dx, diff_x), (tp_dp, diff_p)]

    # -- installation --------------------------------------------------------------

    def install(self):
        ea = sys.modules["ncqm.exact_algebra"]
        pairs = self._hot(ea)
        bracket = sys.modules["ncqm.poisson"].canonical_bracket
        calls = self.calls

        def count_bracket(f, g):
            calls["poisson.bracket"] += 1
            return bracket(f, g)

        pairs.append((bracket, count_bracket))

        def after_build(args, _):
            calls["star.slice_rules"] += sum(len(s) for s in args[0].slices)

        def after_compose(_, op):
            if len(op.terms) > self.peak["operators.op_peak_terms"]:
                self.peak["operators.op_peak_terms"] = len(op.terms)

        hooks = {"star.build": after_build, "operators.compose": after_compose}
        for module, path, name in SPANS:
            fn = _resolve(module, path)
            pairs.append((fn, self._span(name, fn, hooks.get(name))))
        for original, wrapper in pairs:
            found = bindings(original)
            if not found:
                raise RuntimeError(f"no binding found for {original!r}")
            for owner, attr, value in found:
                if isinstance(value, staticmethod):
                    new = staticmethod(wrapper)
                elif isinstance(value, classmethod):
                    new = classmethod(wrapper)
                else:
                    new = wrapper
                setattr(owner, attr, new)
                self._patched.append((owner, attr, value))
            self.originals.append(original)
            self.wrappers.append(wrapper)

    def remove(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def leftovers(self, funcs) -> list[str]:
        """Names still bound to any of ``funcs`` inside ncqm."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for f in funcs for owner, attr, _ in bindings(f)]
