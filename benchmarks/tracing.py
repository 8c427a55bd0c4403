"""Spans around the regionvote layers, recorded from outside the package.

Tracer.install() replaces every public function of the layer modules with
a wrapper, in every regionvote module namespace that binds it, so calls
the package makes to itself (breakdown -> voting, cli -> voting, eigenlab
-> eigenlab) are recorded as well as the benchmark's own calls. Nothing
in the package is edited; uninstall() puts the originals back.

A span is [name, tag, start_ns, end_ns, parent]: name is
"<layer>.<function>", tag a small value that splits one function's calls
(the scheme, the region count), parent the index of the enclosing span or
-1. Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

LAYERS = ("grid", "voting", "noise", "shifting", "breakdown", "eigenlab", "cli")

# Per-cell and per-region helpers, called hundreds of thousands of times in
# a run: a span on each would cost more than the work it measures, so their
# time counts toward the caller's self time.
UNTRACED = frozenset({"plurality_winner", "region_of"})

_SCHEME_KINDS = {
    "GlobalScheme": "global",
    "RegionalScheme": "regional",
    "BestShiftScheme": "best_shift",
}


def _scheme_and_trials(bound):
    kind = _SCHEME_KINDS[type(bound["scheme"]).__name__]
    return [kind, bound["trials"]]


def _scheme_and_draws(bound):
    kind = _SCHEME_KINDS[type(bound["scheme"]).__name__]
    return [kind, len(bound["rates"]) * bound["trials"]]


# Functions whose calls the per-layer metrics split, with the tag taken
# from their bound arguments (defaults applied).
TAGGERS = {
    "breakdown.randomized_breakdown": _scheme_and_trials,
    "breakdown.salt_pepper_threshold": _scheme_and_draws,
    "eigenlab.disk_noise": lambda bound: bound["coverage"],
    "eigenlab.train_regional": lambda bound: bound["region_count"],
    "eigenlab.recognize": lambda bound: bound["regional_model"].region_count,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str, tag) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, tag, time.perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][3] = time.perf_counter_ns()

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        """A span of the benchmark's own, such as one operation."""
        index = self._open(name, tag)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        tagger = TAGGERS.get(name)
        signature = inspect.signature(fn) if tagger else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = None
            if tagger is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tag = tagger(bound.arguments)
            index = self._open(name, tag)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def install(self) -> None:
        for layer in LAYERS:
            __import__(f"regionvote.{layer}")
        modules = [
            module
            for name, module in sys.modules.items()
            if name == "regionvote" or name.startswith("regionvote.")
        ]
        for layer in LAYERS:
            layer_module = sys.modules[f"regionvote.{layer}"]
            for attr, fn in list(vars(layer_module).items()):
                if (
                    attr.startswith("_")
                    or attr in UNTRACED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != layer_module.__name__
                ):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, name, wrapper)
                            self._patched.append((module, name, fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading ---------------------------------------------------------

    def durations_ns(self, name: str, tag=None) -> list[int]:
        """Durations of the calls of one function, optionally of one tag."""
        return [
            end - start
            for n, t, start, end, _ in self.spans
            if n == name and (tag is None or t == tag)
        ]

    def self_ns_by_layer(self) -> dict[str, int]:
        """Each layer's self time: its spans minus their child spans."""
        child_ns = [0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, int] = {}
        for i, (name, _, start, end, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0) + (end - start) - child_ns[i]
        return out

    def write(self, path) -> None:
        origin = self.spans[0][2] if self.spans else 0
        payload = {
            "fields": ["name", "tag", "start_ns", "end_ns", "parent"],
            "spans": [
                [name, tag, start - origin, end - origin, parent]
                for name, tag, start, end, parent in self.spans
            ],
            "self_ns_by_layer": self.self_ns_by_layer(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")
