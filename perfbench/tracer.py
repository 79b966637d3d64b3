"""Span tracer for the fsing benchmark.

The tracer wraps the public functions of each fsing layer module from the
outside: the program itself is not instrumented.  Each call to a wrapped
function records one span (id, parent id, name, start, end) in memory; the
spans are written out only when the traced run ends.  The per-layer metrics
are derived from those spans afterwards, with self time = span duration
minus the durations of its direct child spans.

Wrapped functions are often imported by name into other fsing modules
(``fcriteria.colon_ideal``, ``testideals.buchberger``,
``certify.strongly_fregular``, ...).  ``install`` therefore replaces every
binding of a wrapped function in every loaded fsing module, and
``uninstall`` restores all of them.  Lazy imports inside function bodies
(``certify._reverify`` imports ``verify_witness_data`` at call time) read
the patched module attribute and are covered too.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

LAYERS = ("polycore", "groebner", "frobenius", "fcriteria", "testideals",
          "arithmodels", "certify", "verify")

# Public helpers left unwrapped: they run millions of times per job on
# monomial tuples (or once per generator inside frobenius_root), so a span
# per call would cost more than the work it measures.
UNWRAPPED = {
    "polycore": {"mono_mul", "mono_divides", "mono_div", "mono_lcm",
                 "mono_degree"},
    "frobenius": {"decompose"},
}

# Methods that are layer boundaries: (module, class, method).
METHODS = (
    ("polycore", "Polynomial", "__mul__"),
    ("polycore", "Polynomial", "__pow__"),
    ("groebner", "Ideal", "contains"),
    ("groebner", "Ideal", "groebner_basis"),
)

# Per-layer metrics of a traced round and their units (see span_metrics).
PER_LAYER_UNITS = {
    "groebner.divide.calls": "count",
    "groebner.divide.s": "s",
    "groebner.reduction_steps": "count",
    "groebner.divide.zero_ratio": "ratio",
    "groebner.buchberger.calls": "count",
    "groebner.buchberger.self_s": "s",
    "groebner.buchberger.gens_in_max": "count",
    "groebner.colon.calls": "count",
    "groebner.colon.s": "s",
    "groebner.intersection.calls": "count",
    "groebner.intersection.s": "s",
    "groebner.gb_cache.hit_ratio": "ratio",
    "groebner.contains.calls": "count",
    "frobenius.root.calls": "count",
    "frobenius.root.s": "s",
    "frobenius.root.gens_out": "count",
    "frobenius.bracket_power.s": "s",
    "fcriteria.fpure.calls": "count",
    "fcriteria.sfr.calls": "count",
    "fcriteria.self_s": "s",
    "fcriteria.oracle.s": "s",
    "fcriteria.nu.s": "s",
    "polycore.mul.calls": "count",
    "polycore.mul.s": "s",
    "testideals.tau_relative.calls": "count",
    "testideals.tau_relative.s": "s",
    "testideals.self_s": "s",
    "arithmodels.s": "s",
    "arithmodels.primes_tried": "count",
    "arithmodels.primes_useful_ratio": "ratio",
    "certify.self_s": "s",
    "certify.inconclusive": "count",
    "verify.calls": "count",
    "verify.s": "s",
    "verify.pass_ratio": "ratio",
    "polycore.parse.s": "s",
    "polycore.parse.job_s": "s",
    "polycore.self_share": "ratio",
    "groebner.self_share": "ratio",
    "frobenius.self_share": "ratio",
    "fcriteria.self_share": "ratio",
    "testideals.self_share": "ratio",
    "arithmodels.self_share": "ratio",
    "certify.self_share": "ratio",
    "verify.self_share": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.spans = []          # (id, parent, name, start, end)
        self.stack = [0]         # 0 is the implicit root
        self.next_id = 1
        self.counts = {}         # name -> int, for counters no span carries
        self.budgets = []        # every Budget created while installed
        self.certificates = []   # Certificate objects returned by certify_*
        self._patches = []       # (owner, attribute, original)
        self._wrappers = {}      # original function -> wrapper

    # -- spans -------------------------------------------------------------

    def span(self, name: str):
        """Context manager for a harness-level span (a job or a setup)."""
        return _Span(self, name)

    def _open(self):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1]
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start):
        end = perf_counter()
        self.stack.pop()
        self.spans.append((sid, parent, name, start, end))

    def bump(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    # -- patching ----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None, before=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid, parent = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, start)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = {layer: sys.modules[f"fsing.{layer}"] for layer in LAYERS}
        hooks = self._hooks(modules)
        for layer, mod in modules.items():
            skip = UNWRAPPED.get(layer, set())
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or attr in skip
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                before, after = hooks.get((layer, attr), (None, None))
                self._wrappers[fn] = self._wrap(f"{layer}.{attr}", fn,
                                                after, before)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = vars(cls)[meth]
            before, after = hooks.get((layer, f"{cls_name}.{meth}"),
                                      (None, None))
            self._set(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn,
                                            after, before))
        # rebind every module-level name that refers to a wrapped function
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fsing"
                                   or mod_name.startswith("fsing.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._set(mod, attr, self._wrappers[value])
        budget_cls = modules["groebner"].Budget
        original_init = budget_cls.__init__
        budgets = self.budgets

        def budget_init(obj, *args, **kwargs):
            original_init(obj, *args, **kwargs)
            budgets.append(obj)

        self._set(budget_cls, "__init__", budget_init)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _hooks(self, modules):
        """Counters that need a call's arguments or result."""
        def divide_after(args, kwargs, result):
            remainder = result[1] if isinstance(result, tuple) else result
            if remainder.is_zero():
                self.bump("groebner.divide.zero")

        def buchberger_before(args, kwargs):
            gens = args[0] if args else kwargs["gens"]
            if not isinstance(gens, (list, tuple)):
                return  # never consume a caller's iterator
            n = sum(1 for g in gens if g)
            self.counts["groebner.buchberger.gens_in_max"] = max(
                self.counts.get("groebner.buchberger.gens_in_max", 0), n)

        def gb_before(args, kwargs):
            ideal = args[0]
            order = args[1] if len(args) > 1 else kwargs.get("order")
            if order is None:
                order = modules["polycore"].GREVLEX
            if order.cache_token() in ideal._gb_cache:
                self.bump("groebner.gb_cache.hit")

        def root_after(args, kwargs, result):
            self.bump("frobenius.root.gens_out", len(result.gens))

        def verify_after(args, kwargs, result):
            if result:
                self.bump("verify.pass")

        def cert_after(args, kwargs, result):
            self.certificates.append(result)
            job = args[0] if args else kwargs["job"]
            if (result.status == "certified"
                    and job.spec.ring.domain.characteristic == 0):
                self.bump("arithmodels.useful_prime")

        hooks = {
            ("groebner", "divide"): (None, divide_after),
            ("groebner", "buchberger"): (buchberger_before, None),
            ("groebner", "Ideal.groebner_basis"): (gb_before, None),
            ("frobenius", "frobenius_root"): (None, root_after),
            ("verify", "verify_witness_data"): (None, verify_after),
        }
        for name in ("certify_log_canonical", "certify_klt", "certify_gsfr"):
            hooks[("certify", name)] = (None, cert_after)
        return hooks

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end]))
                fh.write("\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid, self.parent = self.tracer._open()
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid, self.parent, self.name, self.start)
        return False


# ---------------------------------------------------------------------------
# Per-layer metrics from spans.


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def span_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced round (values only, no units).

    ``<name>.s`` metrics are inclusive times of the outermost spans of that
    name (a span nested in a span of the same name is not counted twice);
    ``self_s`` metrics subtract child spans.  Parsing is split by where it
    runs: ``polycore.parse.s`` is the parsing done while the inputs are
    built (part of set-up), ``polycore.parse.job_s`` the parsing done
    inside jobs (``verify_witness_data`` parses the ideals it re-checks).
    """
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for sid, parent, name, start, end in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def harness_span(sid):
        """Name of the harness span (the setup or a job) a span runs in."""
        while by_id[sid][1]:
            sid = by_id[sid][1]
        return by_id[sid][2]

    calls, outer_s, self_by_name = {}, {}, {}
    parse_s = {"setup": 0.0, "job": 0.0}
    layer_self = {layer: 0.0 for layer in LAYERS}
    total_self = 0.0
    for sid, parent, name, start, end in spans:
        dur = end - start
        own = dur - child_time.get(sid, 0.0)
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        total_self += own
        layer = layer_of(name)
        if layer in layer_self:
            layer_self[layer] += own
        # outermost-of-its-name check
        p = parent
        nested = False
        while p:
            ps = by_id[p]
            if ps[2] == name:
                nested = True
                break
            p = ps[1]
        if not nested:
            outer_s[name] = outer_s.get(name, 0.0) + dur
            if name == "polycore.parse_polynomial":
                where = "setup" if harness_span(sid) == "setup" else "job"
                parse_s[where] += dur

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return outer_s.get(name, 0.0)

    def layer_outer_s(layer):
        """Time inside a layer: outermost spans of that layer only."""
        total = 0.0
        for sid, parent, name, start, end in spans:
            if layer_of(name) != layer:
                continue
            p, inside = parent, False
            while p:
                if layer_of(by_id[p][2]) == layer:
                    inside = True
                    break
                p = by_id[p][1]
            if not inside:
                total += end - start
        return total

    def ratio(num, den):
        return num / den if den else 0.0

    c = tracer.counts
    certs = tracer.certificates
    divide_calls = n("groebner.divide")
    gb_calls = n("groebner.Ideal.groebner_basis")
    verify_calls = n("verify.verify_witness_data")
    primes = n("arithmodels.reduce_mod_p")
    out = {
        "groebner.divide.calls": divide_calls,
        "groebner.divide.s": s("groebner.divide"),
        "groebner.reduction_steps": sum(b.used for b in tracer.budgets),
        "groebner.divide.zero_ratio": ratio(c.get("groebner.divide.zero", 0),
                                            divide_calls),
        "groebner.buchberger.calls": n("groebner.buchberger"),
        "groebner.buchberger.self_s": self_by_name.get("groebner.buchberger",
                                                       0.0),
        "groebner.buchberger.gens_in_max":
            c.get("groebner.buchberger.gens_in_max", 0),
        "groebner.colon.calls": n("groebner.colon_ideal"),
        "groebner.colon.s": s("groebner.colon_ideal"),
        "groebner.intersection.calls": n("groebner.intersection"),
        "groebner.intersection.s": s("groebner.intersection"),
        "groebner.gb_cache.hit_ratio": ratio(c.get("groebner.gb_cache.hit", 0),
                                             gb_calls),
        "groebner.contains.calls": n("groebner.Ideal.contains"),
        "frobenius.root.calls": n("frobenius.frobenius_root"),
        "frobenius.root.s": s("frobenius.frobenius_root"),
        "frobenius.root.gens_out": c.get("frobenius.root.gens_out", 0),
        "frobenius.bracket_power.s": s("frobenius.bracket_power"),
        "fcriteria.fpure.calls": n("fcriteria.sharply_fpure"),
        "fcriteria.sfr.calls": (
            n("fcriteria.strongly_fregular")
            + n("fcriteria.strongly_fregular_relative_escape")),
        "fcriteria.self_s": layer_self["fcriteria"],
        "fcriteria.oracle.s": s("fcriteria.splitting_oracle"),
        "fcriteria.nu.s": s("fcriteria.nu_value"),
        "polycore.mul.calls": n("polycore.Polynomial.__mul__"),
        "polycore.mul.s": s("polycore.Polynomial.__mul__"),
        "testideals.tau_relative.calls": n("testideals.tau_relative"),
        "testideals.tau_relative.s": s("testideals.tau_relative"),
        "testideals.self_s": layer_self["testideals"],
        "arithmodels.s": layer_outer_s("arithmodels"),
        "arithmodels.primes_tried": primes,
        "arithmodels.primes_useful_ratio": ratio(
            c.get("arithmodels.useful_prime", 0), primes),
        "certify.self_s": layer_self["certify"],
        "certify.inconclusive": sum(1 for cert in certs
                                    if cert.conclusion == "inconclusive"),
        "verify.calls": verify_calls,
        "verify.s": s("verify.verify_witness_data"),
        "verify.pass_ratio": ratio(c.get("verify.pass", 0), verify_calls),
        "polycore.parse.s": parse_s["setup"],
        "polycore.parse.job_s": parse_s["job"],
    }
    layer_total = sum(layer_self.values())
    for layer in LAYERS:
        out[f"{layer}.self_share"] = ratio(layer_self[layer], layer_total)
    out["_layer_calls"] = {layer: sum(v for k, v in calls.items()
                                      if layer_of(k) == layer)
                           for layer in LAYERS}
    return out
