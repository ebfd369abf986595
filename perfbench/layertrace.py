"""Per-layer spans recorded from outside the library.

Every public module-level function of each layer module is replaced by a
timing wrapper.  The wrapper is bound in every ``compedge`` module that
holds the original, because ``from .betti import hochster_betti`` copies
the binding into ``classify`` and ``cli``.  Private helpers stay
unwrapped, so their time counts towards the public function that called
them.  Generator functions stay unwrapped as well: a wrapper would time
only the creation of the generator.

A layer's self time is the duration of its spans minus the time of the
wrapped calls made inside them.  A function group's inclusive time counts
only its outermost calls, so recursion and nesting are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

LAYERS = ("graphs", "ideals", "complexes", "homology", "betti", "classify", "cli")

# group name -> functions whose outermost calls it times
GROUPS = {
    "ideals.minimal_primes": ("ideals.minimal_primes",),
    "ideals.linear_quotient": (
        "ideals.linear_quotient_order",
        "ideals.is_linear_quotient_order",
        "ideals.has_linear_quotient_order",
    ),
    "ideals.degree_component": ("ideals.degree_component",),
    "betti.hochster": ("betti.hochster_betti",),
    "betti.koszul": ("betti.koszul_betti", "betti.multigraded_koszul_betti"),
    "betti.ring_properties": ("betti.ring_properties",),
    "classify.verify": ("classify.verify_graph",),
}


class LayerTrace:
    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls: dict[str, int] = {}
        self.group_s = dict.fromkeys(GROUPS, 0.0)
        self._group_depth = dict.fromkeys(GROUPS, 0)
        self._stack: list[list[float]] = []  # child time of each open span
        self.verify_ms: list[float] = []
        self.hochster_subsets = 0
        self.dims_keys: set = set()

    def install(self) -> None:
        """Wrap each layer's public functions in every compedge namespace."""
        modules = [m for name, m in sys.modules.items()
                   if name == "compedge" or name.startswith("compedge.")]
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"compedge.{layer}"]
            for name, fn in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                replacements[id(fn)] = self._wrap(layer, f"{layer}.{name}", fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, name, wrapper)

    def _wrap(self, layer: str, qualname: str, fn):
        groups = [g for g, members in GROUPS.items() if qualname in members]
        hook = {"homology.homology_dims_of_facets": self._count_dims,
                "betti.hochster_betti": self._count_subsets}.get(qualname)
        samples = self.verify_ms if qualname == "classify.verify_graph" else None
        stack = self._stack
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                # bookkeeping time is charged to no layer
                hook_start = perf_counter()
                hook(*args, **kwargs)
                if stack:
                    stack[-1][0] += perf_counter() - hook_start
            outermost = [g for g in groups if self._group_depth[g] == 0]
            for g in groups:
                self._group_depth[g] += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.self_s[layer] += elapsed - frame[0]
                self.calls[qualname] = self.calls.get(qualname, 0) + 1
                for g in groups:
                    self._group_depth[g] -= 1
                for g in outermost:
                    self.group_s[g] += elapsed
                if samples is not None:
                    samples.append(elapsed * 1e3)

        return wrapper

    def _count_dims(self, facets, char) -> None:
        # keyed as homology._dims_cache keys its entries
        self.dims_keys.add((tuple(sorted(facets)), char))

    def _count_subsets(self, I, field) -> None:
        self.hochster_subsets += (1 << I.n) - 1

    def layer_calls(self, layer: str) -> int:
        return sum(c for name, c in self.calls.items() if name.startswith(layer + "."))

    def metrics(self, graphs: int) -> dict[str, float]:
        """Per-layer figures for one pass that verified ``graphs`` graphs."""
        dims_calls = self.calls.get("homology.homology_dims_of_facets", 0)
        verify = sorted(self.verify_ms)
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update({
            "graphs.calls": self.layer_calls("graphs"),
            "complexes.calls": self.layer_calls("complexes"),
            "ideals.minimal_primes.calls_per_graph":
                self.calls.get("ideals.minimal_primes", 0) / graphs,
            "ideals.minimal_primes.s": self.group_s["ideals.minimal_primes"],
            "ideals.linear_quotient.s": self.group_s["ideals.linear_quotient"],
            "ideals.degree_component.calls": self.calls.get("ideals.degree_component", 0),
            "ideals.degree_component.s": self.group_s["ideals.degree_component"],
            "homology.dims.calls": dims_calls,
            "homology.dims.distinct": len(self.dims_keys),
            "homology.memo_reuse_ratio":
                1 - len(self.dims_keys) / dims_calls if dims_calls else 0.0,
            "betti.hochster.s": self.group_s["betti.hochster"],
            "betti.hochster.subsets": self.hochster_subsets,
            "betti.hochster.calls_per_graph":
                self.calls.get("betti.hochster_betti", 0) / graphs,
            "betti.koszul.s": self.group_s["betti.koszul"],
            "betti.ring_properties.s": self.group_s["betti.ring_properties"],
            "betti.linear_resolution.calls": self.calls.get("betti.has_linear_resolution", 0),
            "classify.verify.p50_ms": _quantile(verify, 0.50),
            "classify.verify.p99_ms": _quantile(verify, 0.99),
        })
        return out


def _quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 when the function never ran."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
