"""Per-layer tracing for the traced benchmark run.

The tracer wraps circorder's public functions from outside the package: it
replaces each function on every circorder module that holds it, which
covers the names that `circorder.cli` and the other modules import
directly.  Calls at layer boundaries become spans (name, start, end, parent,
operation id); hot calls (the Promislow oracle and abelianization) only
bump an aggregate count and time.  Spans stay in memory until `write_spans`.
Times are read from the clock the tracer is given: the worker passes its
host-speed clock's `now`, CPU seconds without the clock's own sampling.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from typing import Callable

LAYERS = ("groups", "orders", "extensions", "cohomology", "obstruction", "promislow", "cli")

SPANNED = (
    ("groups", "load_group"), ("groups", "direct_product"),
    ("orders", "enumerate_circular_orders"), ("orders", "arrangement_to_inhom"),
    ("orders", "validate_inhom"), ("orders", "validate_hom"),
    ("extensions", "minimal_generator"),
    ("cohomology", "coboundary_matrices"), ("cohomology", "smith_normal_form"),
    ("cohomology", "h2_structure"), ("cohomology", "class_of"),
    ("cohomology", "is_n_divisible"), ("cohomology", "is_trivial_mod_n"),
    ("obstruction", "spectrum_finite"),
    ("promislow", "demo"), ("promislow", "ball"),
    ("cli", "main"),
)
COUNTED = (("promislow", "promislow_circular_order"), ("promislow", "abelianization_image"))


def _cache_key(name, a, k):
    """The module cache a top-level cohomology call consults."""
    G = a[0]
    if name == "h2_structure":
        return "h2", G.table, a[1] if len(a) > 1 else k.get("modulus")
    if name == "class_of":
        return "h2", G.table, None
    return name, G.table, a[2] if len(a) > 2 else k["n"]


def _max_bits(matrix) -> int:
    return max((abs(v).bit_length() for row in matrix.data for v in row), default=0)


class Tracer:
    def __init__(self, now: Callable[[], float]):
        self.now = now
        self.spans = []       # [id, parent, op, name, start, end, child_seconds]
        self.stack = []
        self.op = None        # id shared by the spans of one benchmark operation
        self.depth = Counter()
        self.inclusive = defaultdict(float)   # outermost calls of each name only
        self.calls = Counter()
        self.counted = {}
        self.h2_seen = set()
        self.h2_cold = self.h2_warm = 0.0
        self.cache_keys = set()
        self.cohomology_calls = self.cohomology_repeats = 0
        self.snf_max_bits = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        layers = {m: importlib.import_module(f"circorder.{m}") for m in LAYERS}
        mods = [importlib.import_module("circorder"), *layers.values()]
        for layer, fn in SPANNED:
            self._replace(mods, getattr(layers[layer], fn), self._spanned(f"{layer}.{fn}"))
        for layer, fn in COUNTED:
            self._replace(mods, getattr(layers[layer], fn), self._counted(f"{layer}.{fn}"))

    @staticmethod
    def _replace(mods, orig, make):
        wrapper = make(orig)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)

    def _spanned(self, name):
        short = name.split(".", 1)[1]
        cohomology_entry = short in ("h2_structure", "class_of", "is_n_divisible",
                                     "is_trivial_mod_n")

        def make(orig):
            def wrapper(*a, **k):
                if cohomology_entry:
                    self._count_key(short, a, k)
                cold = None
                if short == "h2_structure":
                    key = _cache_key(short, a, k)
                    cold = key not in self.h2_seen
                    self.h2_seen.add(key)
                result = self._span(name, orig, a, k, cold)
                if short == "smith_normal_form":
                    self._scan_bits(result, a, k)
                return result
            return wrapper
        return make

    def _counted(self, name):
        agg = self.counted.setdefault(name, [0, 0.0])

        def make(orig):
            def wrapper(*a):
                t = self.now()
                try:
                    return orig(*a)
                finally:
                    agg[1] += self.now() - t
                    agg[0] += 1
            return wrapper
        return make

    # -- recording -----------------------------------------------------------

    def _span(self, name, fn, a, k, h2_cold):
        parent = self.stack[-1] if self.stack else None
        rec = [len(self.spans), parent, self.op, name, 0.0, 0.0, 0.0]
        self.spans.append(rec)
        self.stack.append(rec[0])
        self.depth[name] += 1
        rec[4] = self.now()
        try:
            result = fn(*a, **k)
        finally:
            rec[5] = self.now()
            seconds = rec[5] - rec[4]
            self.stack.pop()
            self.depth[name] -= 1
            self.calls[name] += 1
            if parent is not None:
                self.spans[parent][6] += seconds
            if not self.depth[name]:
                self.inclusive[name] += seconds
            if h2_cold is True:
                self.h2_cold += seconds
            elif h2_cold is False:
                self.h2_warm += seconds
        return result

    def _count_key(self, short, a, k):
        # only calls made outside another cohomology entry point count
        if any(self.depth[f"cohomology.{n}"] for n in
               ("h2_structure", "class_of", "is_n_divisible", "is_trivial_mod_n")):
            return
        key = _cache_key(short, a, k)
        self.cohomology_calls += 1
        if key in self.cache_keys:
            self.cohomology_repeats += 1
        self.cache_keys.add(key)

    def _scan_bits(self, snf, a, k):
        """Largest entry bit-length in the returned transforms.  The scan's
        time is removed from every open span."""
        t = self.now()
        want_u = a[1] if len(a) > 1 else k.get("want_u", True)
        mats = [snf.V] + ([snf.U] if want_u else []) + ([snf.Vinv] if snf.Vinv is not None else [])
        self.snf_max_bits = max(self.snf_max_bits, *(_max_bits(m) for m in mats))
        spent = self.now() - t
        for idx in self.stack:
            self.spans[idx][4] += spent

    # -- results -------------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        return sum(r[5] - r[4] - r[6] for r in self.spans if r[3] == name)

    def metrics(self) -> dict:
        """Per-layer metrics of this process, with zeros for bypassed layers."""
        inc = self.inclusive
        evals, eval_s = self.counted.get("promislow.promislow_circular_order", (0, 0.0))
        return {
            "cohomology.snf_s": inc["cohomology.smith_normal_form"],
            "cohomology.snf_calls": self.calls["cohomology.smith_normal_form"],
            "cohomology.snf_max_bits": self.snf_max_bits,
            "cohomology.coboundary_s": inc["cohomology.coboundary_matrices"],
            "cohomology.h2_cold_s": self.h2_cold,
            "cohomology.h2_warm_s": self.h2_warm,
            "cohomology.class_of_s": inc["cohomology.class_of"],
            "cohomology.is_n_divisible_s": inc["cohomology.is_n_divisible"],
            "cohomology.is_n_divisible_calls": self.calls["cohomology.is_n_divisible"],
            "cohomology.is_trivial_mod_n_s": inc["cohomology.is_trivial_mod_n"],
            "cohomology.calls": self.cohomology_calls,
            "cohomology.repeats": self.cohomology_repeats,
            "orders.arrangement_to_inhom_s": inc["orders.arrangement_to_inhom"],
            "orders.validate_s": inc["orders.validate_inhom"] + inc["orders.validate_hom"],
            "orders.enumerate_s": inc["orders.enumerate_circular_orders"],
            "groups.load_group_s": inc["groups.load_group"],
            "groups.direct_product_s": inc["groups.direct_product"],
            "extensions.minimal_generator_s": inc["extensions.minimal_generator"],
            "obstruction.spectrum_finite_s": inc["obstruction.spectrum_finite"],
            "promislow.oracle_evals": evals,
            "promislow.oracle_s": eval_s,
            "promislow.ball_s": inc["promislow.ball"],
            "promislow.abelianization_s":
                self.counted.get("promislow.abelianization_image", (0, 0.0))[1],
            "cli.main_self_s": self.self_seconds("cli.main"),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end, child in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end,
                                     "self": end - start - child}) + "\n")
