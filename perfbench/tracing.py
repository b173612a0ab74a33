"""In-memory spans around the public functions of the program's modules.

A :class:`Tracer` replaces a function by a wrapper that records one span per
call: its layer, name, thread, start and end, the span that called it on the
same thread, and its self time (its duration minus the part its child spans
cover). A module that did ``from x import f`` holds its own reference to
``f``, so the wrapper is installed under every name of every loaded
``antiwatt`` module that refers to the original. Nothing in the program
changes; spans stay in memory until :meth:`Tracer.write`.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Tuple

PACKAGE = "antiwatt"


class Span(NamedTuple):
    span_id: int
    parent_id: int  # 0 at the top of a thread
    layer: str
    name: str
    thread: int
    start: float  # perf_counter seconds
    end: float
    self_s: float


def layer_of(module_name: str) -> str:
    """``antiwatt.stats.align`` -> ``stats``; ``antiwatt.cli`` -> ``cli``."""
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [next(self._ids), 0.0]  # span id, time covered by children
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.spans.append(
                    Span(frame[0], parent, layer, name, threading.get_ident(), start, end,
                         end - start - frame[1])
                )

        return traced

    # ----------------------------------------------------------- installing

    def patch(self, module_name: str, attr: str, wrapper: Callable = None) -> bool:
        """Wrap ``module_name.attr`` wherever a loaded program module refers to it.

        ``attr`` may name a method as ``Class.method``; the class is patched.
        *wrapper* defaults to a span of the module's layer. Returns False, and
        patches nothing, when the program no longer has that function: its
        spans and the metrics built on them then read zero.
        """
        module = sys.modules.get(module_name)
        layer = layer_of(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name, None)
            if owner is None or method not in owner.__dict__:
                return False
            original = owner.__dict__[method]
            self._set(owner, method, wrapper or self.wrap(layer, f"{layer}.{attr}", original))
            return True
        original = getattr(module, attr, None)
        if original is None:
            return False
        replacement = wrapper or self.wrap(layer, f"{layer}.{attr}", original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, replacement)
        return True

    def _set(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # ------------------------------------------------------------- summaries

    def by_name(self) -> Dict[str, dict]:
        out: Dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span in self.spans:
            entry = out[span.name]
            entry["calls"] += 1
            entry["total_s"] += span.end - span.start
            entry["self_s"] += span.self_s
        return dict(out)

    def self_by_layer(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.layer] += span.self_s
        return dict(out)

    def write(self, path: Path) -> None:
        """All spans as JSON lines, once, when the traced work has ended."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")
