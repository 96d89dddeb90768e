"""Spans recorded from outside the program, for one traced batch.

:class:`Tracer` rebinds each seam's callables to a wrapper that times every
call, and restores the originals on :meth:`Tracer.uninstall`.  Module-level
functions are rebound in every loaded ``repro`` namespace holding the same
function object (``from x import f`` copies the reference), methods on their
class.  Nothing is installed unless a traced run asks for it, and the traced
run is serial, so no worker process ever inherits a wrapper.

Totals are exact: every call adds its duration, its self time (duration minus
the spans it directly caused) and one to its seam's counters.  Only the span
*detail* written to ``--trace-out`` is capped per seam, so memory and
overhead stay bounded at ~500 ``transport.send`` calls per op.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

#: Detailed spans kept per seam; calls beyond it are still counted and timed.
SPAN_CAP = 2000

#: Name and layer of the pseudo-seam around the workload's entry-point call.
ROOT = "entry"


def resolve(target: str):
    """``"module:qualname"`` -> ``(owner, attribute name)``; raises if stale."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attribute != "*" and attribute not in vars(owner):
        raise AttributeError(f"{target} is not defined on {owner!r}")
    return owner, attribute


def _subclasses(cls) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


class Tracer:
    """Installs, aggregates and removes the seam wrappers of one traced run."""

    def __init__(self, seams: Sequence, count_only: Dict[str, str] | None = None) -> None:
        self.names: List[str] = [ROOT] + [seam.name for seam in seams]
        self.layers: List[str] = [ROOT] + [seam.layer for seam in seams]
        self._seams = list(seams)
        self._count_only = dict(count_only or {})
        size = len(self.names)
        self.calls = [0] * size
        self.total = [0.0] * size
        self.self_time = [0.0] * size
        #: ``(span id, parent id, seam index, start, duration)`` per kept span.
        self.spans: List[Tuple[int, int, int, float, float]] = []
        self.counts: Dict[str, int] = {name: 0 for name in self._count_only}
        self.missing: List[str] = []
        self._stack: List[List[float]] = []
        self._next_id = [1]
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------- wrapping

    def _wrap(self, function: Callable, index: int) -> Callable:
        calls, total, self_time = self.calls, self.total, self.self_time
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        next_id = self._next_id

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span_id = next_id[0]
            next_id[0] = span_id + 1
            frame = [0.0, span_id]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                calls[index] += 1
                total[index] += duration
                self_time[index] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if calls[index] <= SPAN_CAP:
                    spans.append(
                        (span_id, int(parent[1]) if parent else 0, index, start, duration)
                    )

        return wrapper

    def _count(self, function: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attribute: str, make: Callable[[Callable], Callable]) -> None:
        raw = vars(owner)[attribute]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make(raw.__func__))
        elif callable(raw):
            replacement = make(raw)
        else:
            raise TypeError(f"{owner!r}.{attribute} is not callable")
        if isinstance(owner, type):
            holders = [(owner, attribute)]
        else:
            # ``from module import f`` copied the reference: rebind each copy.
            holders = [
                (module, key)
                for name, module in list(sys.modules.items())
                if module is not None and (name == "repro" or name.startswith("repro."))
                for key, value in list(vars(module).items())
                if value is raw
            ]
        for holder, key in holders:
            self._patches.append((holder, key, vars(holder)[key]))
            setattr(holder, key, replacement)

    def _patch_target(self, target: str, make: Callable[[Callable], Callable]) -> None:
        owner, attribute = resolve(target)
        if attribute != "*":
            self._patch(owner, attribute, make)
            return
        hooks = [
            name
            for name, value in vars(owner).items()
            if not name.startswith("_") and callable(value)
        ]
        for cls in [owner] + _subclasses(owner):
            for hook in hooks:
                if hook in vars(cls):
                    self._patch(cls, hook, make)

    def install(self, preload: Sequence[str] = ()) -> None:
        """Rebind every resolvable seam; unresolvable ones land in ``missing``."""
        for module_name in preload:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        for index, seam in enumerate(self._seams, start=1):
            for target in seam.targets:
                try:
                    self._patch_target(
                        target, lambda function, index=index: self._wrap(function, index)
                    )
                except (ImportError, AttributeError, KeyError, TypeError):
                    if seam.name not in self.missing:
                        self.missing.append(seam.name)
        for name, target in self._count_only.items():
            try:
                self._patch_target(
                    target, lambda function, name=name: self._count(function, name)
                )
            except (ImportError, AttributeError, KeyError, TypeError):
                self.missing.append(name)

    def uninstall(self) -> None:
        """Restore every rebound name, newest first."""
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def root(self, function: Callable) -> Callable:
        """Wrap the workload's entry-point call: time under it and under no
        seam is the untraced share."""
        return self._wrap(function, 0)

    # ------------------------------------------------------------ reporting

    def wall(self) -> float:
        """Seconds spent inside the entry-point span(s)."""
        return self.total[0]

    def seam_stats(self) -> Dict[str, Dict[str, float]]:
        """``{seam: {"calls", "total_s", "self_s"}}`` for every seam."""
        return {
            name: {
                "calls": self.calls[index],
                "total_s": self.total[index],
                "self_s": self.self_time[index],
            }
            for index, name in enumerate(self.names)
            if index
        }

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time summed per layer."""
        sums: Dict[str, float] = {}
        for index, layer in enumerate(self.layers):
            if index:
                sums[layer] = sums.get(layer, 0.0) + self.self_time[index]
        return sums

    def untraced_seconds(self) -> float:
        """Time inside the entry point that no seam covers."""
        return self.self_time[0]

    def durations(self, seam_name: str) -> List[float]:
        """Durations of the kept spans of one seam, in call order."""
        index = self.names.index(seam_name)
        return [span[4] for span in self.spans if span[2] == index]

    def write_jsonl(self, path: str, header: Dict[str, object]) -> None:
        """One header line, then one line per kept span (microseconds)."""
        origin = min((span[3] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            head = dict(header, kind="header", span_cap=SPAN_CAP)
            head["calls"] = {name: self.calls[i] for i, name in enumerate(self.names)}
            handle.write(json.dumps(head, sort_keys=True) + "\n")
            for span_id, parent, index, start, duration in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": self.names[index],
                            "layer": self.layers[index],
                            "start_us": round((start - origin) * 1e6, 3),
                            "dur_us": round(duration * 1e6, 3),
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )

    def write_chrome_trace(self, path: str) -> None:
        """The kept spans as Chrome trace "complete" events (chrome://tracing)."""
        origin = min((span[3] for span in self.spans), default=0.0)
        events = [
            {
                "name": self.names[index],
                "cat": self.layers[index],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": duration * 1e6,
                "pid": 1,
                "tid": 1,
            }
            for _span_id, _parent, index, start, duration in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
