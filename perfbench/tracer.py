"""Spans around the public functions of the crosscontact modules, installed from outside.

The tracer replaces every public module-level function and public method of
the layer modules (and ``numpy.einsum``, the kernel) with a wrapper that
records calls, inclusive time and self time. Self time excludes child spans;
numpy work other than einsum counts toward the calling layer. Every replaced
attribute is put back by ``uninstall``; nothing in the package changes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from collections import Counter
from enum import Enum
from time import perf_counter

import numpy as np

LAYERS = ("rootsys", "compactform", "crossmodel", "homgeo", "contact",
          "tanbundle", "suites", "report")
ROOT = "cli.main"
KERNEL = "numpy.einsum"


class Tracer:
    """In-memory span statistics keyed by ``layer.qualname``."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # child time of each open span
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.layer_incl: Counter = Counter()  # outermost-span time per layer
        self.einsum_keys: Counter = Counter()  # (subscripts, shapes, optimize)
        self.observed: dict[str, list] = {"algebra_dims": [], "scan_points": []}
        self._depth: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        layer = name.split(".", 1)[0]
        stack, depth, stat = self.stack, self._depth, self.spans.setdefault(
            name, [0, 0.0, 0.0])
        layer_incl = self.layer_incl

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            outer_name = depth[name] == 0
            outer_layer = depth[layer] == 0
            depth[name] += 1
            depth[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                depth[name] -= 1
                depth[layer] -= 1
                stack.pop()
                stat[0] += 1
                stat[2] += dt - frame[0]
                if outer_name:
                    stat[1] += dt
                if outer_layer:
                    layer_incl[layer] += dt
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observers(self) -> dict:
        dims, points = self.observed["algebra_dims"], self.observed["scan_points"]
        return {
            "compactform.verify_algebra": lambda args, _: dims.append(args[0].dim),
            "contact.uniqueness_scan": lambda _, res: points.append(res["n_points"]),
        }

    def _einsum_wrapper(self):
        keys = self.einsum_keys
        timed = self._wrap(KERNEL, np.einsum)

        @functools.wraps(np.einsum)
        def einsum(*operands, **kwargs):
            if operands and isinstance(operands[0], str):
                keys[(operands[0],
                      tuple(np.shape(op) for op in operands[1:]),
                      kwargs.get("optimize", False))] += 1
            return timed(*operands, **kwargs)

        return einsum

    # --- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> int:
        """Wrap every public function of the layer modules; return the count."""
        mods = {layer: importlib.import_module(f"crosscontact.{layer}")
                for layer in LAYERS}
        cli = importlib.import_module("crosscontact.cli")
        holders = [m for n, m in list(sys.modules.items())
                   if n == "crosscontact" or n.startswith("crosscontact.")]
        observers = self._observers()
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    name = f"{layer}.{attr}"
                    wrapper = self._wrap(name, obj, observers.get(name))
                    # rebind every alias, e.g. names imported with ``from .x import f``
                    for holder in holders:
                        for hattr, hval in list(vars(holder).items()):
                            if hval is obj:
                                self._patch(holder, hattr, wrapper)
                elif isinstance(obj, type) and not issubclass(obj, (Enum, BaseException)):
                    self._wrap_methods(layer, obj)
        self._patch(cli, "main", self._wrap(ROOT, cli.main))
        self._patch(np, "einsum", self._einsum_wrapper())
        return len(self._patches)

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, types.FunctionType):
                self._patch(cls, attr, self._wrap(name, member))
            elif isinstance(member, (classmethod, staticmethod)):
                self._patch(cls, attr, type(member)(self._wrap(name, member.__func__)))

    def uninstall(self) -> bool:
        """Restore every patched attribute; True iff each one is the original again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original
                       for owner, attr, original in self._patches)
        return restored and not self.stack

    # --- results -----------------------------------------------------------

    def einsum_flops(self) -> int:
        """Exact flop count of every traced einsum, under each call's own ``optimize``."""
        return sum(count * contraction_flops(sub, shapes, opt)
                   for (sub, shapes, opt), count in self.einsum_keys.items())

    def summary(self) -> dict:
        return {"spans": {k: {"calls": v[0], "incl_s": v[1], "self_s": v[2]}
                          for k, v in self.spans.items()},
                "layer_incl_s": dict(self.layer_incl),
                "einsum_flops": self.einsum_flops(),
                "algebra_dims": self.observed["algebra_dims"],
                "scan_points": self.observed["scan_points"]}


@functools.lru_cache(maxsize=None)
def contraction_flops(subscripts: str, shapes: tuple, optimize) -> int:
    """Flops of one einsum along the path ``np.einsum_path`` picks for ``optimize``.

    Each step costs the product of the sizes of its indices times
    max(1, terms - 1), plus one when it sums an index away: the rule numpy
    uses for its own FLOP estimate, kept here as an exact integer.
    """
    inputs, arrow, output = subscripts.replace(" ", "").partition("->")
    terms = inputs.split(",")
    if not arrow:  # implicit output: the indices that appear once, sorted
        output = "".join(sorted(c for c in set(inputs) - {","}
                                if inputs.count(c) == 1))
    sizes = {}
    for term, shape in zip(terms, shapes):
        sizes.update(zip(term, shape))
    path = np.einsum_path(subscripts, *(np.empty(s) for s in shapes),
                          optimize=optimize)[0][1:]
    remaining = list(terms)
    total = 0
    for step in path:
        picked = [remaining[i] for i in step]
        for i in sorted(step, reverse=True):
            del remaining[i]
        indices = set("".join(picked))
        keep = set(output).union(*remaining)
        result = "".join(sorted(indices & keep))
        size = 1
        for c in indices:
            size *= sizes[c]
        factor = max(1, len(picked) - 1) + (1 if indices - keep else 0)
        total += size * factor
        remaining.append(result)
    return total
