"""Traced run: wrap alphacf's public functions from outside the library.

``install`` replaces each traced function by a wrapper in *every* alphacf
module namespace that holds it, because ``alpha``, ``byexcess``, ``brjuno``
and ``cli`` bind them with ``from .exact import ...``.  Layers L1-L4 record
spans (name, start, end, parent, item id) in memory; the L0 primitives run
about a million times per pass, so they only count calls and sum self
time.  Self time is a call's duration minus the time its traced children
took.  All times are read from the work clock, so calibration pauses and
the tracer's own result inspection are excluded.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import alphacf as ac
from alphacf import exact

L0 = ("exact.compare", "exact.floor_shift", "exact.recip", "exact.sign_val")
SPANNED = (
    "alpha.alpha_step", "alpha.alpha_expand", "alpha.beta_check",
    "alpha.reconstruction_check", "alpha.decay_check",
    "byexcess.minus_step", "byexcess.minus_expand",
    "byexcess.minus_to_regular", "byexcess.regular_to_minus",
    "brjuno.brjuno_sum", "brjuno.semi_brjuno", "brjuno.make_u",
    "cli.main", "holder.estimate_holder",
)
DICTIONARY = ("byexcess.minus_to_regular", "byexcess.regular_to_minus")


def _bits(value) -> int:
    if isinstance(value, ac.Fraction):
        return max(value.numerator.bit_length(),
                   value.denominator.bit_length())
    if isinstance(value, ac.Surd):
        return max(abs(value.a).bit_length(), abs(value.b).bit_length(),
                   value.c.bit_length())
    return 0


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.stack: list[list] = []       # [child seconds, span id]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []
        self.item = None
        self.gauges: Counter = Counter()  # digits, bit maxima, sum counts
        self._next_span = 0

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.spans.clear()
        self.gauges.clear()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, spanned: bool, inspect=None):
        tracer = self
        now = self.clock.now

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][1] if stack else None
            if spanned:
                span_id = tracer._next_span
                tracer._next_span += 1
            else:
                span_id = parent
            entry = [0.0, span_id]
            stack.append(entry)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                duration = t1 - t0
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - entry[0]
                if stack:
                    stack[-1][0] += duration
                if spanned:
                    tracer.spans.append((span_id, name, t0, t1, parent,
                                         tracer.item))
            if inspect is not None:
                t_enter = time.perf_counter()
                inspect(result)
                tracer.clock.exclude(t_enter)
            return result

        traced.__wrapped__ = fn
        return traced

    def _inspect_alpha(self, exp) -> None:
        g = self.gauges
        g["alpha.digits"] += len(exp.digits)
        g["alpha.q_bits_max"] = max(g["alpha.q_bits_max"],
                                    *(abs(q).bit_length() for q in exp.q_seq))
        g["alpha.beta_bits_max"] = max(g["alpha.beta_bits_max"],
                                       *map(_bits, exp.betas))

    def _inspect_minus(self, m) -> None:
        self.gauges["byexcess.digits"] += len(m.digits)

    def _inspect_sum(self, res) -> None:
        self.gauges["brjuno.sums"] += 1
        self.gauges["brjuno.converged"] += bool(res.converged)

    def install(self) -> None:
        inspectors = {
            "alpha.alpha_expand": self._inspect_alpha,
            "byexcess.minus_expand": self._inspect_minus,
            "brjuno.brjuno_sum": self._inspect_sum,
            "brjuno.semi_brjuno": self._inspect_sum,
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "alphacf" or n.startswith("alphacf.")]
        for name in L0 + SPANNED:
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"alphacf.{mod_name}"], fn_name)
            wrapper = self._wrap(name, original, name in SPANNED,
                                 inspectors.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        self._wrap_enclosure()

    def _wrap_enclosure(self) -> None:
        original = exact.AdaptiveReal.enclosure
        gauges = self.gauges

        def enclosure(real, bits):
            gauges["exact.enclosure.calls"] += 1
            if bits > gauges["exact.enclosure.max_bits"]:
                gauges["exact.enclosure.max_bits"] = bits
            return original(real, bits)

        exact.AdaptiveReal.enclosure = enclosure

    # -- results -------------------------------------------------------------

    def metrics(self, time_scale: float, make_u_setup_s: float) -> dict:
        """Per-layer metrics of one traced pass; seconds are normalised."""
        c, s, g = self.calls, self.self_s, self.gauges
        out = {}
        for name in L0 + ("alpha.alpha_step", "alpha.alpha_expand",
                          "byexcess.minus_step", "byexcess.minus_expand",
                          "brjuno.brjuno_sum", "brjuno.semi_brjuno",
                          "cli.main"):
            out[f"{name}.calls"] = c[name]
            out[f"{name}.self_s"] = s[name] * time_scale
        for name in ("alpha.beta_check", "alpha.reconstruction_check",
                     "alpha.decay_check", "holder.estimate_holder"):
            out[f"{name}.self_s"] = s[name] * time_scale
        out["byexcess.dictionary.self_s"] = sum(
            s[n] for n in DICTIONARY) * time_scale
        out["brjuno.make_u.self_s"] = (s["brjuno.make_u"] * time_scale
                                       + make_u_setup_s)
        for name in ("exact.enclosure.calls", "exact.enclosure.max_bits",
                     "alpha.digits", "alpha.q_bits_max",
                     "alpha.beta_bits_max", "byexcess.digits"):
            out[name] = g[name]
        sums = g["brjuno.sums"]
        out["brjuno.converged_ratio"] = (g["brjuno.converged"] / sums
                                         if sums else 0.0)
        return out

    def write_spans(self, path: str) -> None:
        """Write the spans as CSV; times are raw work-clock seconds."""
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,item\n")
            for span_id, name, t0, t1, parent, item in self.spans:
                fh.write(f"{span_id},{name},{t0:.9f},{t1:.9f},"
                         f"{'' if parent is None else parent},{item}\n")
