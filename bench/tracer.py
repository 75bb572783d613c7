"""Span tracer that times rnlab's layers from outside the package.

``Tracer.install()`` replaces each target function or method with a wrapper
that records a span (name, start, end, parent) and a few counters.  The
replacement is made in every ``rnlab`` namespace that holds the original
object, so a name imported with ``from .hensel import lift_step_odd`` is
traced as well as ``hensel.lift_step_odd``; aliases inside a class (such as
``__rmul__ = __mul__``) are replaced too.  Targets that no longer exist are
skipped and listed in ``absent``.  ``uninstall()`` puts every original back.

Spans stay in memory; ``layer_metrics()`` turns them into per-layer numbers
and ``write_spans()`` writes them out once the run is over.  A layer's self
time is the duration of its spans minus the time covered by their child
spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (layer, name): a function of module rnlab.<layer>; a dotted name is an
# attribute of a class there
TARGETS = (
    ("hensel", "roots_mod_pn"),
    ("hensel", "lift_two"),
    ("hensel", "lift_step_odd"),
    ("hensel", "lift_two_step"),
    ("hensel", "sqrt_mod_p"),
    ("survey", "run_survey"),
    ("survey", "power_compare"),
    ("survey", "checkpoint"),
    ("survey", "restore"),
    ("pade", "IntPolynomial.__mul__"),
    ("pade", "IntPolynomial.__pow__"),
    ("pade", "PadeSystem.identity_holds"),
    ("pade", "build_diagonal"),
    ("pade", "build_general"),
    ("pade", "content"),
    ("pade", "normalize"),
    ("pade", "cross_constant"),
    ("pade", "eval_at_z0"),
    ("pade", "assembled_identity_holds"),
    ("quadring", "QuadInt.__mul__"),
    ("quadring", "QuadInt.__pow__"),
    ("quadring", "QuadInt.exact_div"),
    ("decomposer", "decompose"),
    ("decomposer", "audit_theorem1_chain"),
    ("decomposer", "_combination"),
    ("rigor", "decide"),
    ("rigor", "rigorous_compare"),
    ("certifier", "certify"),
    ("certifier", "max_sigma"),
    ("cli", "main"),
)

LAYERS = ("hensel", "survey", "pade", "quadring", "decomposer", "rigor",
          "certifier", "cli")

# per-layer metrics: name -> unit; see layer_metrics() for definitions
UNITS = {
    "hensel.calls": "count", "hensel.self_s": "s",
    "hensel.lift_levels": "count", "hensel.s_per_level": "s",
    "survey.self_s": "s", "survey.records": "count",
    "survey.power_compare_calls": "count", "survey.checkpoint_bytes": "B",
    "pade.self_s": "s", "pade.mul_calls": "count", "pade.mul_s": "s",
    "pade.mul_operand_bits": "bit", "pade.build_calls": "count",
    "pade.identity_checks": "count",
    "quadring.self_s": "s", "quadring.mul_calls": "count",
    "quadring.pow_calls": "count",
    "decomposer.self_s": "s", "decomposer.calls": "count",
    "rigor.self_s": "s", "rigor.decide_calls": "count",
    "rigor.rounds_per_decide": "ratio", "rigor.exact_ratio": "ratio",
    "certifier.self_s": "s", "certifier.calls": "count",
    "cli.self_s": "s", "cli.calls": "count", "cli.out_bytes": "B",
}

# metrics counted exactly: they repeat between runs of the same inputs
EXACT = tuple(k for k, u in UNITS.items() if u in ("count", "B", "bit"))


def _poly_bits(poly) -> int:
    return sum(c.bit_length() for c in poly.coeffs)


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # span name index -> "layer.name"
        self.layer_of: list[str] = []  # span name index -> layer
        self._index: dict[str, int] = {}  # "layer.name" -> span name index
        self.spans: list = []  # (name index, parent span, start ns, end ns)
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []  # (namespace, attribute, original)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "rnlab"
                                         or name.startswith("rnlab."))]
        for layer, qualname in TARGETS:
            modname = f"rnlab.{layer}"
            owner = sys.modules.get(modname)
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                if f"{modname}.{qualname}" not in self.absent:
                    self.absent.append(f"{modname}.{qualname}")
                continue
            wrapper = self._wrap(original, f"{layer}.{qualname}", layer)
            # class aliases such as __rmul__ = __mul__, or every module
            # namespace that imported the function by name
            spaces = [owner] if cls_path else modules
            for ns in spaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._saved.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._saved):
            setattr(ns, key, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, fn, name: str, layer: str):
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        around = _HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = None
            if around is not None:
                args, after = around(tracer, args)
            spans = tracer.spans
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (idx, parent, start, end)
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded so far."""
        dur = [0] * len(self.spans)
        child = [0] * len(self.spans)
        self_ns = dict.fromkeys(LAYERS, 0)
        calls = [0] * len(self.names)
        mul_ns = 0
        for sid, (idx, parent, start, end) in enumerate(self.spans):
            dur[sid] = end - start
            if parent >= 0:
                child[parent] += end - start
            calls[idx] += 1
        for sid, (idx, parent, start, end) in enumerate(self.spans):
            self_ns[self.layer_of[idx]] += dur[sid] - child[sid]
            if self.names[idx] == "pade.IntPolynomial.__mul__":
                mul_ns += dur[sid]

        by_name = dict(zip(self.names, calls))
        by_layer = dict.fromkeys(LAYERS, 0)
        for name, n in by_name.items():
            by_layer[name.split(".", 1)[0]] += n

        def n(*names):
            return sum(by_name.get(x, 0) for x in names)

        c = self.counts
        levels = n("hensel.lift_step_odd", "hensel.lift_two_step")
        decides = n("rigor.decide")
        compares = n("rigor.rigorous_compare")
        out = {f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS}
        out.update({
            "hensel.calls": by_layer["hensel"],
            "hensel.lift_levels": levels,
            "hensel.s_per_level": (self_ns["hensel"] / 1e9 / levels
                                   if levels else 0.0),
            "survey.records": c.get("survey.records", 0),
            "survey.power_compare_calls": n("survey.power_compare"),
            "survey.checkpoint_bytes": c.get("survey.checkpoint_bytes", 0),
            "pade.mul_calls": n("pade.IntPolynomial.__mul__"),
            "pade.mul_s": mul_ns / 1e9,
            "pade.mul_operand_bits": c.get("pade.mul_operand_bits", 0),
            "pade.build_calls": n("pade.build_diagonal", "pade.build_general"),
            "pade.identity_checks": n("pade.PadeSystem.identity_holds",
                                      "pade.assembled_identity_holds"),
            "quadring.mul_calls": n("quadring.QuadInt.__mul__"),
            "quadring.pow_calls": n("quadring.QuadInt.__pow__"),
            "decomposer.calls": n("decomposer.decompose",
                                  "decomposer.audit_theorem1_chain"),
            "rigor.decide_calls": decides,
            "rigor.rounds_per_decide": (c.get("rigor.rounds", 0) / decides
                                        if decides else 0.0),
            "rigor.exact_ratio": (c.get("rigor.exact_compares", 0) / compares
                                  if compares else 0.0),
            "certifier.calls": n("certifier.certify", "certifier.max_sigma"),
            "cli.calls": n("cli.main"),
            "cli.out_bytes": c.get("cli.out_bytes", 0),
        })
        return {k: out[k] for k in UNITS}

    def write_spans(self, path: str, rep: int) -> None:
        """Append one line per span, tagged as job list ``rep``: job list,
        id, parent id (-1 for none), name, start and end in ns.  Job list 0
        starts the file with a header."""
        with open(path, "w" if rep == 0 else "a") as fh:
            if rep == 0:
                fh.write("rep\tid\tparent\tname\tstart_ns\tend_ns\n")
            for sid, (idx, parent, start, end) in enumerate(self.spans):
                fh.write(f"{rep}\t{sid}\t{parent}\t{self.names[idx]}"
                         f"\t{start}\t{end}\n")


# Hooks run around a traced call and feed the counters.  Each takes the
# tracer and the call's arguments and returns the arguments to call with and
# a function to run on the result, or None.


def _around_decide(tracer, args):
    # decide calls its left-hand enclosure function once per precision round
    tracer.count("rigor.decides")
    build_lhs, *rest = args

    def counted():
        tracer.count("rigor.rounds")
        return build_lhs()

    return (counted, *rest), None


def _around_compare(tracer, args):
    seen = tracer.counts.get("rigor.decides", 0)

    def after(result):
        if tracer.counts.get("rigor.decides", 0) == seen:
            tracer.count("rigor.exact_compares")

    return args, after


def _around_poly_mul(tracer, args):
    a, b = args
    if isinstance(b, type(a)):
        tracer.count("pade.mul_operand_bits", _poly_bits(a) + _poly_bits(b))
    return args, None


def _around_survey(tracer, args):
    return args, lambda rep: tracer.count("survey.records", rep.records_checked)


def _around_checkpoint(tracer, args):
    return args, lambda blob: tracer.count("survey.checkpoint_bytes",
                                           len(blob.encode()))


_HOOKS = {
    "rigor.decide": _around_decide,
    "rigor.rigorous_compare": _around_compare,
    "pade.IntPolynomial.__mul__": _around_poly_mul,
    "survey.run_survey": _around_survey,
    "survey.checkpoint": _around_checkpoint,
}


def median_metrics(per_rep: list[dict]) -> dict[str, float]:
    """Each metric's median over the job lists; median_low keeps an exact
    count an integer."""
    return {k: statistics.median_low(m[k] for m in per_rep) for k in per_rep[0]}
