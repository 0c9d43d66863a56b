"""Spans around the library's public functions, recorded from outside.

While a `Tracer` is installed, every hecke5 module attribute bound to a
traced function (for example `divmod_pseudo` in both `golden` and
`matrices`) is replaced by one wrapper that records a span: name, start,
end, parent span and op.  Leaving `installed()` puts every original
object back.  Self time is a span's duration minus that of its children.
"""

from __future__ import annotations

import contextlib
import sys
from collections import defaultdict
from time import perf_counter


def _elements(result) -> dict:
    n = result.order if hasattr(result, "order") else len(result)
    return {"elements": n, "max_elements": n}


def _steps(result) -> dict:
    return {"steps": len(result.quotients)}


def _checks(result) -> dict:
    return {"checks": len(result.checks), "checks_failed": sum(not c.passed for c in result.checks)}


# (span name, defining module, attribute, counter taken from the result)
TARGETS = (
    ("golden.divmod_pseudo", "golden", "divmod_pseudo", None),
    ("golden.gcd_pseudo", "golden", "gcd_pseudo", None),
    ("golden.unit_log", "golden", "unit_log", None),
    ("golden.lambda_power", "golden", "lambda_power", None),
    ("ideals.factor_ideal", "ideals", "factor_ideal", None),
    ("ideals.split_rational_prime", "ideals", "split_rational_prime", None),
    ("ideals.ideal_from_generator", "ideals", "ideal_from_generator", None),
    ("ideals.ideal_mul", "ideals", "ideal_mul", None),
    ("matrices.is_member", "matrices", "is_member", None),
    ("matrices.reduce_fraction", "matrices", "reduce_fraction", _steps),
    ("matrices.eval_word", "matrices", "eval_word", None),
    ("quotient.build_quotient", "quotient", "build_quotient", _elements),
    ("quotient.semigroup_closure", "quotient", "semigroup_closure", _elements),
    ("quotient.ResMat.pow", "quotient", "ResMat.__pow__", None),
    ("quotient.subgroup_generated", "quotient", "subgroup_generated", None),
    ("quotient.power_subgroup", "quotient", "power_subgroup", None),
    ("quotient.is_normal", "quotient", "is_normal", None),
    ("quotient.sl2_order", "quotient", "sl2_order", None),
    ("formula.index_formula", "formula", "index_formula", None),
    ("verify.kernel_layer", "verify", "verify_kernel_layer", _checks),
    ("verify.conjugation_action", "verify", "verify_conjugation_action", _checks),
    ("verify.level5_structure", "verify", "verify_level5_structure", _checks),
    ("verify.identities", "verify", "verify_identities", _checks),
    ("cli.main", "cli", "main", None),
)

LAYERS = ("golden", "ideals", "matrices", "quotient", "formula", "verify", "cli")


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "hecke5" or name.startswith("hecke5.")]


def bindings(original) -> list[tuple[object, str]]:
    """Every (module, name) in the hecke5 package bound to `original`."""
    return [
        (module, name)
        for module in package_modules()
        for name, value in list(vars(module).items())
        if value is original
    ]


def resolve(lib, module: str, attribute: str):
    """(owner, name, object) for a target such as ("quotient", "ResMat.__pow__"),
    or None when the library no longer defines it."""
    owner = getattr(lib, module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if name not in getattr(owner, "__dict__", {}):
        return None
    return owner, name, vars(owner)[name]


def sites(lib) -> list[tuple[tuple, object, str, object]]:
    """(target, owner, name, original) for every binding of every target:
    a function is patched in each hecke5 module that binds it, a method on
    its class.  A target the library no longer defines is skipped, so the
    benchmark still runs against a refactored library."""
    out = []
    for target in TARGETS:
        found = resolve(lib, target[1], target[2])
        if found is None:
            continue
        owner, name, original = found
        places = bindings(original) if owner is getattr(lib, target[1]) else [(owner, name)]
        out += [(target, place, place_name, original) for place, place_name in places]
    return out


class Tracer:
    """Records spans while `installed()`; `summary()` gives, per span name,
    calls, inclusive time and self time.  `op` is the index within its
    pass of the op that spans belong to."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, count):
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(result).items():
                    full = f"{name}.{key}"
                    if key.startswith("max_"):
                        counters[full] = max(counters[full], value)
                    else:
                        counters[full] += value
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every target; restore them all on exit."""
        wrappers = {}
        patched = []
        try:
            for target, owner, name, original in sites(self.lib):
                if target not in wrappers:
                    wrappers[target] = self._wrap(target[0], original, target[3])
                patched.append((owner, name, original))
                setattr(owner, name, wrappers[target])
            yield self
        finally:
            for owner, name, original in reversed(patched):
                setattr(owner, name, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out
