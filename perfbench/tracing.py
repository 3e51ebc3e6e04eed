"""Span and counter recording around cparm's public functions.

The tracer replaces each traced function with a wrapper in every ``cparm``
module that holds it, so a call is caught whether it goes through the
defining module (``cparm.arm.generate_rules`` called by
``run_threshold_sweep``) or an importing one (``cparm.pipeline.generate_rules``).
Spans are aggregated in memory by (name, parent name); a span's self time is
its duration minus the time of the spans nested directly inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        # (name, parent) -> [calls, total seconds, seconds in child spans]
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [name, seconds in child spans]

    def wrap(self, name: str, fn, on_return=None):
        """A wrapper that records a span named ``name`` around ``fn``.

        ``on_return(tracer, result, args)`` runs after the span has closed and
        its time is taken out of the enclosing span's self time, so counting a
        result's size adds to no layer.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                agg = self.spans.setdefault((name, parent), [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed
            if on_return is not None:
                hook_start = time.perf_counter()
                on_return(self, result, args)
                if self._stack:  # bill the hook to no span
                    self._stack[-1][1] += time.perf_counter() - hook_start
            return result

        return traced

    def install(self, owner, attribute: str, name: str, on_return=None) -> None:
        """Trace ``owner.attribute`` under ``name`` wherever cparm refers to it.

        ``owner`` is a module or a class. For a module function, every loaded
        ``cparm`` module whose global of that name is the same object gets the
        wrapper too.
        """
        original = getattr(owner, attribute)
        wrapper = self.wrap(name, original, on_return)
        holders = [owner]
        if not isinstance(owner, type):
            holders += [
                module
                for module_name, module in list(sys.modules.items())
                if (module_name == "cparm" or module_name.startswith("cparm."))
                and module is not owner
                and getattr(module, attribute, None) is original
            ]
        for holder in holders:
            setattr(holder, attribute, wrapper)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] += amount

    def self_seconds(self, name: str) -> float:
        """Total self time of every span called ``name``, whatever its parent."""
        return sum(
            total - child
            for (span, _parent), (_calls, total, child) in self.spans.items()
            if span == name
        )

    def calls(self, name: str) -> int:
        return sum(agg[0] for (span, _parent), agg in self.spans.items() if span == name)

    def tree(self) -> list[dict]:
        """The aggregated spans, largest self time first, for printing."""
        rows = [
            {"span": span, "parent": parent, "calls": calls,
             "total_s": total, "self_s": total - child}
            for (span, parent), (calls, total, child) in self.spans.items()
        ]
        rows.sort(key=lambda r: -r["self_s"])
        return rows
