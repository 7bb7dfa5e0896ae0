"""Spans around the public functions of every toriq module, from outside.

``Tracer.install`` wraps each public function defined in a ``toriq`` module
and rebinds every name that refers to it in every ``toriq`` module namespace,
so calls through ``from .x import f`` and through ``module.f`` are both seen.
Each wrapped call pushes a frame; on return the frame's duration, minus the
time of the wrapped calls inside it, is added to the self time of the
function's module.  Most calls are also kept as spans (name, start, end,
parent); the calls that dominate run time are only counted, so that tracing
stays cheap.  The leaf arithmetic helpers (monomial, polynomial and
level-polynomial arithmetic, number formatting) are millions of calls on the
larger fans and are not wrapped at all: their time is charged to the caller.
"""

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# `catalog` builds its fans at import, which `cli.import_s` covers.
LAYERS = ("fan", "lattice", "moricone", "polynomials", "cohomring", "novikov",
          "gkz", "batyrev", "cli")

# Counted and timed, but not kept as spans.
COUNT_ONLY = {
    "novikov.nilpotent_geometric", "batyrev.dp_reduce",
    "polynomials.normal_form",
    "cohomring.CohClass.__mul__", "novikov.HLaurent.__mul__",
    "novikov.NovikovScalar.__mul__",
}
METHODS = (("cohomring", "CohClass", "__mul__"),
           ("novikov", "HLaurent", "__mul__"),
           ("novikov", "NovikovScalar", "__mul__"))

NOT_WRAPPED = {
    "polynomials": {"mono_mul", "mono_divides", "mono_div", "mono_lcm",
                    "mono_deg", "term_key", "pzero", "pconst", "pvar", "padd",
                    "psub", "pscale", "pmul_term", "pmul", "ppow", "leading",
                    "s_poly"},
    "batyrev": {"dp_zero", "dp_clean", "dp_add", "dp_neg", "dp_sub",
                "dp_mul_term", "dp_shift", "dp_mul_scalar",
                "dp_coefficient_scalar"},
    "cli": {"frac_str"},
}

# Time covered by the outermost call of any function in a group.
GROUPS = {
    "moricone.enumerate_s": {"moricone.enumerate_effective"},
    "moricone.mori_data_s": {"moricone.mori_data"},
    "polynomials.buchberger_s": {"polynomials.buchberger"},
    "cohomring.build_s": {"cohomring.build_cohomology_ring"},
    "gkz.i_function_s": {"gkz.i_function"},
    "gkz.coefficient_s": {"gkz.gkz_coefficient"},
    "gkz.annihilation_s": {"gkz.annihilation_certificate"},
    "gkz.two_point_s": {"gkz.extract_two_point_invariants"},
    "batyrev.deformed_ideal_s": {"batyrev.build_deformed_ideal"},
    "batyrev.certificate_s": {"batyrev.certify_isomorphism"},
    "cli.render_s": {"cli.fan_block", "cli.novikov_monomial_str",
                     "cli.scalar_str", "cli.basis_monomial_str",
                     "cli.expansion_str", "cli.hlaurent_entries",
                     "cli._rule_rhs_str", "cli._relation_str",
                     "cli.render_text"},
}
# Private helpers that render report text; wrapped for cli.render_s.
PRIVATE_WRAPPED = {"cli": {"_rule_rhs_str", "_relation_str"}}

CALLS = {
    "fan.validate_calls": ("fan.validate_smooth", "fan.validate_complete",
                           "fan.validate"),
    "lattice.nullspace_calls": ("lattice.nullspace_rational",),
    "moricone.enumerate_calls": ("moricone.enumerate_effective",),
    "polynomials.normal_form_calls": ("polynomials.normal_form",),
    "cohomring.build_calls": ("cohomring.build_cohomology_ring",),
    "cohomring.class_mul_calls": ("cohomring.CohClass.__mul__",),
    "novikov.geometric_calls": ("novikov.nilpotent_geometric",),
    "novikov.hlaurent_mul_calls": ("novikov.HLaurent.__mul__",),
    "novikov.scalar_mul_calls": ("novikov.NovikovScalar.__mul__",),
    "gkz.i_function_calls": ("gkz.i_function",),
    "gkz.coefficient_calls": ("gkz.gkz_coefficient",),
    "batyrev.dp_reduce_calls": ("batyrev.dp_reduce",),
    "batyrev.module_matrices_calls": ("batyrev.module_matrices",),
}

# Work read off return values: metric -> (function, value of one result).
RESULTS = {
    "moricone.classes": ("moricone.enumerate_effective", len),
    "batyrev.rules": ("batyrev.build_deformed_ideal", lambda r: len(r.rules)),
    "batyrev.completion_added": ("batyrev.build_deformed_ideal",
                                 lambda r: r.completion_added),
}


def _wrap_targets(modules):
    """(qualified name, owner, attribute, function) for everything wrapped."""
    out = []
    for layer, mod in modules.items():
        skip = NOT_WRAPPED.get(layer, set())
        extra = PRIVATE_WRAPPED.get(layer, set())
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or attr in extra)
                    and attr not in skip):
                out.append((f"{layer}.{attr}", mod, attr, obj))
    for layer, cls, meth in METHODS:
        owner = getattr(modules[layer], cls)
        out.append((f"{layer}.{cls}.{meth}", owner, meth,
                    owner.__dict__[meth]))
    return out


class Tracer:
    """Span recorder; ``install`` rebinds, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []             # (id, parent id, name, start ns, end ns)
        self.counts = Counter()
        self.self_ns = defaultdict(int)
        self.group_ns = defaultdict(int)
        self.results = defaultdict(int)
        self._stack = []            # [layer, span id, child ns]
        self._depth = Counter()
        self._next_id = 0
        self._restore = []

    def _wrapper(self, fn, name):
        layer = name.split(".")[0]
        record = name not in COUNT_ONLY
        groups = [g for g, names in GROUPS.items() if name in names]
        results = [(m, f) for m, (n, f) in RESULTS.items() if n == name]
        stack, counts, self_ns = self._stack, self.counts, self.self_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if record:
                self._next_id += 1
                sid = self._next_id
            else:
                sid = parent
            frame = [layer, sid, 0]
            for g in groups:
                self._depth[g] += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                took = end - start
                self_ns[layer] += took - frame[2]
                if stack:
                    stack[-1][2] += took
                counts[name] += 1
                if record:
                    self.spans.append((sid, parent, name, start, end))
                for g in groups:
                    self._depth[g] -= 1
                    if not self._depth[g]:
                        self.group_ns[g] += took
            for metric, f in results:
                self.results[metric] += f(result)
            return result

        return wrapper

    def install(self):
        modules = {name: sys.modules[f"toriq.{name}"] for name in LAYERS}
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "toriq" or name.startswith("toriq.")]
        wrappers = {}
        for name, owner, attr, fn in _wrap_targets(modules):
            w = self._wrapper(fn, name)
            wrappers[id(fn)] = (fn, w)
            if inspect.isclass(owner):
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, w)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)][1])

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore = []

    def metrics(self):
        """Per-layer metrics of everything recorded, in seconds and counts."""
        out = {f"{layer}.self_s": self.self_ns[layer] / 1e9
               for layer in LAYERS}
        out.update({g: self.group_ns[g] / 1e9 for g in GROUPS})
        out.update({m: sum(self.counts[n] for n in names)
                    for m, names in CALLS.items()})
        out.update({m: self.results[m] for m in RESULTS})
        return out

    def write(self, path):
        """Write the spans and counts as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns",
                                  "end_ns"],
                       "spans": self.spans,
                       "counts": dict(sorted(self.counts.items()))}, fh)
