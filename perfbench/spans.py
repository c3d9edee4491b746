"""Span tracing of voxfec from outside the package.

`Tracer.install` replaces every public voxfec function, in each module
namespace that binds it, with a wrapper that records one span per call;
`uninstall` puts the originals back. No source file changes, and the
wrapped functions return exactly what the originals return.

A span is named `<layer>.<function>`, the layer being the module that
defines the function (`transform.dequantize`, `rangecoder.build_cdf`).
The CLI's subcommand handlers are named `cli.<subcommand>`, and the
receiver's two entry points `receiver.ingest` and `receiver.finalize`.
Each call passes through exactly one wrapper, the one at the binding it
was looked up through, so a call is never counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = (
    "frontend",
    "transform",
    "hyperprior",
    "rangecoder",
    "packets",
    "channel",
    "receiver",
    "metrics",
    "pipeline",
    "cli",
    "corpus",
)
_LAYER_OF = {f"voxfec.{name}": name for name in LAYERS}


def span_name(attr: str, fn) -> str | None:
    """Span name for `fn` bound as `attr`, or None to leave it unwrapped."""
    layer = _LAYER_OF.get(getattr(fn, "__module__", None))
    if layer is None or attr.startswith("_") or fn.__name__.startswith("_"):
        return None
    if layer == "cli":
        # only the subcommand handlers; main and the parser are glue
        if not fn.__name__.startswith("cmd_"):
            return None
        return "cli." + fn.__name__[4:].replace("_", "-")
    return f"{layer}.{fn.__name__}"


class Tracer:
    """In-memory span statistics: calls, time and child time per name."""

    def __init__(self):
        # name -> [calls, total_ns, child_ns]
        self.stats: dict[str, list[int]] = {}
        # (parent name, child name) -> total_ns of the child's spans
        self.edges: dict[tuple[str, str], int] = {}
        self.top_ns = 0  # time inside spans that have no parent span
        self.cache_hits = 0
        self.cache_lookups = 0
        self._stack: list[list] = []  # open spans: [name, child_ns]
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats.clear()
        self.edges.clear()
        self.top_ns = 0
        self.cache_hits = 0
        self.cache_lookups = 0

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "edges": dict(self.edges),
            "top_ns": self.top_ns,
            "cache_hits": self.cache_hits,
            "cache_lookups": self.cache_lookups,
        }

    def wrap(self, name: str, fn):
        stats = self.stats
        edges = self.edges
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0, 0]
                entry[0] += 1
                entry[1] += dt
                entry[2] += frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    key = (parent[0], name)
                    edges[key] = edges.get(key, 0) + dt
                else:
                    self.top_ns += dt

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def time_binding(self, owner, attr: str, name: str) -> None:
        """Record spans named `name` for calls through `owner.attr`."""
        self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def install(self) -> None:
        if self._patches:
            return
        for layer in LAYERS:
            module = importlib.import_module(f"voxfec.{layer}")
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj):
                    name = span_name(attr, obj)
                    if name is not None:
                        self.time_binding(module, attr, name)
        receiver = importlib.import_module("voxfec.receiver")
        cls = getattr(receiver, "Receiver", None)
        for method in ("ingest", "finalize"):
            if cls is not None and hasattr(cls, method):
                self.time_binding(cls, method, f"receiver.{method}")
        rangecoder = importlib.import_module("voxfec.rangecoder")
        cache_cls = getattr(rangecoder, "TableCache", None)
        if cache_cls is not None and hasattr(cache_cls, "get"):
            self._patch(cache_cls, "get", self._count_lookups(cache_cls.get))

    def _count_lookups(self, get):
        tracer = self

        def counted(cache, key):
            table = get(cache, key)
            tracer.cache_lookups += 1
            if table is not None:
                tracer.cache_hits += 1
            return table

        return counted

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
