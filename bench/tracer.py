"""Spans around padiclift's layer boundaries, recorded from outside the program.

The traced run patches the names that one padiclift module calls in
another, in the importing module, because ``from .bell import BellTable``
binds a second name that patching ``bell.BellTable`` alone would miss.
:meth:`Tracer.restore` puts every original back.

A span is ``[name, start_ns, end_ns, parent, op_id, raised, note]``;
``parent`` is the index of the enclosing span (-1 for a call made by the
benchmark itself) and ``note`` a small value taken from the call, such as
a Bell table's ``n_max``.  Spans stay in memory until the run ends.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import time

# Per-layer metrics, in the order BENCHMARK.json lists them: name -> unit.
LAYER_METRICS = {
    "bell.BellTable.calls": "count",
    "bell.BellTable.self_s": "s",
    "bell.BellTable.cells": "count",
    "series.formal_root_brackets.calls": "count",
    "series.formal_root_brackets.self_s": "s",
    "series.Series.mul.calls": "count",
    "series.Series.mul.self_s": "s",
    "hensel.lift_simple.self_s": "s",
    "hensel.lift_general.self_s": "s",
    "hensel.lift_all.self_s": "s",
    "hensel.closed_forms.self_s": "s",
    "hensel.terms_used": "count",
    "hensel.lift_general.errors": "count",
    "hensel.teichmuller.self_s": "s",
    "hensel.newton_lift.self_s": "s",
    "hensel.teichmuller_oracle.self_s": "s",
    "factorize.tn_series.calls": "count",
    "factorize.tn_series.self_s": "s",
    "factorize.bell_tables_per_factor": "count/op",
    "factorize.scan.evals": "count",
    "factorize.scan.self_s": "s",
    "factorize.scan.hit_ratio": "fraction",
    "factorize.factor.self_s": "s",
    "factorize.a_coeffs.self_s": "s",
    "factorize.t_coeffs.self_s": "s",
    "factorize.verify_factorization.self_s": "s",
    "polys.evaluate.calls": "count",
    "polys.evaluate.self_s": "s",
    "polys.mul.self_s": "s",
    "bigmath.vp.self_s": "s",
    "bigmath.is_prime.calls": "count",
    "bigmath.is_prime.self_s": "s",
    "cli.build_parser.self_s": "s",
    "cli.main.self_s": "s",
    "cli.exit_0": "count",
    "cli.exit_1": "count",
    "cli.exit_2": "count",
    "cli.uncaught": "count",
    "cli.deadline_exceeded": "count",
    "cli.known_defects": "count",
    "trace.overhead_ratio": "ratio",
}


def _n_max(args, result):
    return result.n_max


def _terms(args, result):
    if isinstance(result, list):
        return sum(rep.terms_used for rep in result)
    return result.terms_used


def _found(args, result):
    return int(result is not None)


def _returned(args, result):
    return result


def layer_patches():
    """(owner, attribute, span name, note) for every traced call site."""
    # the package namespace binds ``padiclift.bell`` to the function, so the
    # modules are looked up by their full names
    bell, bigmath, cli, factorize, hensel, padic, polys, series = (
        importlib.import_module(f"padiclift.{m}") for m in
        ("bell", "bigmath", "cli", "factorize", "hensel", "padic", "polys", "series"))
    SI = factorize.SeriesInput
    return [
        (bell, "BellTable", "bell.BellTable", _n_max),
        (series, "BellTable", "bell.BellTable", _n_max),
        (factorize, "BellTable", "bell.BellTable", _n_max),
        (hensel, "formal_root_brackets", "series.formal_root_brackets", None),
        (series.Series, "__mul__", "series.Series.mul", None),
        (series.Series, "__rmul__", "series.Series.mul", None),
        (hensel, "lift_simple", "hensel.lift_simple", _terms),
        (hensel, "lift_general", "hensel.lift_general", _terms),
        (factorize, "lift_general", "hensel.lift_general", _terms),
        (hensel, "lift_all", "hensel.lift_all", _terms),
        (hensel, "lift_quadratic", "hensel.closed_forms", _terms),
        (hensel, "lift_cubic", "hensel.closed_forms", _terms),
        (hensel, "lift_sparse", "hensel.closed_forms", _terms),
        (hensel, "teichmuller", "hensel.teichmuller", None),
        (hensel, "newton_lift", "hensel.newton_lift", None),
        (hensel, "teichmuller_oracle", "hensel.teichmuller_oracle", None),
        (factorize, "tn_series", "factorize.tn_series", None),
        (factorize, "_find_valuation_root", "factorize.scan", _found),
        (SI, "eval_exact", "factorize.SeriesInput.eval", None),
        (SI, "eval_derivative_exact", "factorize.SeriesInput.eval", None),
        (factorize, "factor", "factorize.factor", None),
        (factorize, "a_coeffs", "factorize.a_coeffs", None),
        (factorize, "t_coeffs", "factorize.t_coeffs", None),
        (factorize, "verify_factorization", "factorize.verify_factorization", None),
        (polys, "evaluate", "polys.evaluate", None),
        (polys, "mul", "polys.mul", None),
        (bigmath, "vp", "bigmath.vp", None),
        (hensel, "vp", "bigmath.vp", None),
        (factorize, "vp", "bigmath.vp", None),
        (padic, "vp", "bigmath.vp", None),
        (cli, "is_prime", "bigmath.is_prime", None),
        (factorize, "is_prime", "bigmath.is_prime", None),
        (cli, "build_parser", "cli.build_parser", None),
        (cli, "main", "cli.main", _returned),
    ]


class Tracer:
    """Records spans for the calls it wraps; ``op_id`` tags each span."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []
        self._saved = []

    def wrap(self, fn, name, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op_id, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[6] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, name, note in layer_patches():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, note))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Self time of every span, in ns (children never overlap: one thread)."""
    child = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


LIFT_SPANS = {"hensel.lift_simple", "hensel.lift_general", "hensel.lift_all",
              "hensel.closed_forms"}


def _under(spans, i, names):
    """Whether span i has an ancestor whose name is in ``names``."""
    j = spans[i][3]
    while j >= 0:
        if spans[j][0] in names:
            return True
        j = spans[j][3]
    return False


def lift_terms(spans):
    """Series terms summed by each outermost lift call that returned."""
    return [s[6] for i, s in enumerate(spans)
            if s[0] in LIFT_SPANS and not s[5] and not _under(spans, i, LIFT_SPANS)]


def layer_metrics(spans):
    """Every per-layer metric that the spans determine (the rest stay 0)."""
    calls, self_ns, errors = {}, {}, {}
    for s, t in zip(spans, self_times(spans)):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + t
        errors[name] = errors.get(name, 0) + s[5]
    out = {name: 0 for name in LAYER_METRICS}
    for name, unit in LAYER_METRICS.items():
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls.get(base, 0)
        elif stat == "self_s":
            out[name] = self_ns.get(base, 0) / 1e9
    out["bell.BellTable.cells"] = sum((s[6] + 1) * (s[6] + 2) // 2 for s in spans
                                      if s[0] == "bell.BellTable" and not s[5])
    out["hensel.terms_used"] = sum(lift_terms(spans))
    out["hensel.lift_general.errors"] = errors.get("hensel.lift_general", 0)
    factors = calls.get("factorize.factor", 0)
    if factors:
        in_factor = sum(1 for i, s in enumerate(spans)
                        if s[0] == "bell.BellTable" and _under(spans, i, {"factorize.factor"}))
        out["factorize.bell_tables_per_factor"] = in_factor / factors
    evals = sum(1 for i, s in enumerate(spans)
                if s[0] == "factorize.SeriesInput.eval" and _under(spans, i, {"factorize.scan"}))
    out["factorize.scan.evals"] = evals
    if evals:
        hits = sum(s[6] or 0 for s in spans if s[0] == "factorize.scan")
        out["factorize.scan.hit_ratio"] = hits / evals
    for s in spans:
        if s[0] == "cli.main":
            key = "cli.uncaught" if s[5] else f"cli.exit_{s[6]}"
            if key in out:
                out[key] += 1
    return out
