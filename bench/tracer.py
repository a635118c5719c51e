"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each planesieve module in spans
and rebinds every name that refers to them, in every planesieve module,
so a call made through an imported name (``planesieve.scan.admissible_index``,
``planesieve.plane.factorize``, ``planesieve.cases.order``) is recorded
too.  ``restore`` puts every original binding back.

A span has a name, a start, an end and a parent (the span open when it
started).  The benchmark is single-threaded, so spans nest as a call
stack and the part of a span covered by its children is the sum of its
direct children's durations.  Each span is folded into per-name totals
as it closes (calls, total seconds, self seconds), which keeps memory
flat however many spans a run makes; the totals stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import importlib
from collections import Counter
from time import perf_counter
from typing import Any, Callable

MODULES = ("exactmath", "plane", "groups", "catalog", "cases", "ledger",
           "scan", "cli")

# Public functions wrapped in spans, by defining module.
TRACED = {
    "exactmath": ("factorize", "is_prime", "small_primes", "is_prime_power"),
    "plane": ("plane_order", "admissible_index", "ljunggren_classify"),
    "groups": ("order", "parabolic_index", "min_proper_index"),
    "catalog": ("classes_for", "involution_class_size"),
    "ledger": ("verify_all", "report_record"),
    "scan": ("sieve_orders", "candidate_gate"),
    "cli": ("main",),
}


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.counters: Counter[str] = Counter()
        self._child_time: list[float] = []  # one entry per open span
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable,
             on_result: Callable[[Any], None] | None = None) -> Callable:
        stats = self.stats.setdefault(name, SpanStats())
        open_spans = self._child_time

        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                covered = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - covered
            if on_result is not None:
                on_result(result)
            return result

        return span

    def install(self) -> None:
        """Wrap the traced functions and the registered case checks."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        mods = {name: importlib.import_module(f"planesieve.{name}") for name in MODULES}
        replacements: dict[int, Callable] = {}
        for mod_name, fn_names in TRACED.items():
            for fn_name in fn_names:
                fn = getattr(mods[mod_name], fn_name)
                replacements[id(fn)] = self.wrap(f"{mod_name}.{fn_name}", fn,
                                                 self._result_hook(mod_name, fn_name))

        # Time each case through a wrapped registry handed to verify_all.
        registry = tuple(dataclasses.replace(case, check=self.wrap(f"cases.{case.id}", case.check))
                         for case in mods["cases"].REGISTRY)
        traced_verify_all = replacements[id(mods["ledger"].verify_all)]

        def verify_all(*args, registry=registry, **kwargs):
            return traced_verify_all(*args, registry=registry, **kwargs)

        replacements[id(mods["ledger"].verify_all)] = verify_all

        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                new = replacements.get(id(value))
                if new is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, new)

    def restore(self) -> None:
        """Put back every binding install() replaced."""
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _result_hook(self, mod_name: str, fn_name: str):
        counters = self.counters
        if (mod_name, fn_name) == ("scan", "candidate_gate"):
            def count_gate(verdict) -> None:
                # The sieve's candidate filter passes unless the gate fails.
                counters["scan.candidate_gate.pass"] += verdict.outcome != "fail"
            return count_gate
        if (mod_name, fn_name) == ("scan", "sieve_orders"):
            def count_rows(rows) -> None:
                counters["scan.rows"] += len(rows)
                counters["scan.survivors"] += sum(row.survived for row in rows)
            return count_rows
        return None

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())
