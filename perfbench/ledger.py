"""Per-layer ledger of the traced benchmark run.

The traced run wraps the public functions of each layer at the binding its
caller resolves (``repro.core.perforator.parse_program``, not only
``repro.kernellang.parser.parse_program``), times every call and charges
each layer its *self* time: the span's duration minus the union of the
spans opened inside it.  The union matters on the fleet, where asyncio
tasks share one thread and a parent's children can interleave.

The fleet front-end's idle time — the event loop blocked in ``select()``
waiting for worker frames — is measured by the event loop's selector
(:class:`_TimedSelector`), so ``fleet.wait_s`` is time the front-end did
nothing else, not an ``await`` that other tasks ran through.

Counts are aggregated as calls happen; only the first
:data:`CHROME_SPANS` spans are kept for the Chrome trace, so a long run
stays small in memory.
"""

from __future__ import annotations

import asyncio
import contextvars
import importlib
import inspect
import os
import selectors
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

from .stats import self_ns

#: Spans kept for the Chrome trace export (the ledger counts every span).
CHROME_SPANS = 20000

#: Root span of one benchmark call; its self time is the unattributed rest.
CALL = "call"
#: The fleet front-end's event loop blocked on worker sockets.
WAIT = "fleet.wait"


@dataclass(frozen=True)
class Binding:
    """One wrapped function: layer name and the binding its caller resolves."""

    layer: str
    module: str
    attr: str
    #: Extra quantity per call, e.g. bytes encoded: (name, fn(args, result)).
    amount: tuple[str, Callable[[tuple, Any], float]] | None = None


def _launch_items(args: tuple, result: Any) -> float:
    # PerforationEngine.run_compiled_batch(self, app, inputs_batch, ...)
    return float(len(result[0] if isinstance(result, tuple) else result))


def _frame_bytes(args: tuple, result: Any) -> float:
    return float(len(result))


def _stored(args: tuple, result: Any) -> float:
    # ServeResultCache.put(self, key, output, error) ignores a None key.
    return 0.0 if args[1] is None else 1.0


BINDINGS: tuple[Binding, ...] = (
    Binding("kernellang.parse", "repro.core.perforator", "parse_program"),
    Binding("kernellang.parse", "repro.kernellang.parser", "parse_program"),
    Binding("kernellang.parse", "repro.kernellang.parser", "tokenize"),
    Binding("kernellang.parse", "repro.kernellang.transforms.pass_manager", "tokenize"),
    Binding("perforate", "repro.core.perforator", "KernelPerforator.perforate"),
    Binding("codegen.lower", "repro.kernellang.codegen", "codegen_kernel"),
    Binding("codegen.lower", "repro.kernellang.codegen", "lower_kernel"),
    Binding(
        "engine.launch",
        "repro.api.engine",
        "PerforationEngine.run_compiled_batch",
        amount=("items", _launch_items),
    ),
    Binding("engine.reference", "repro.api.engine", "PerforationEngine.reference"),
    Binding("quality.compute_error", "repro.serve.server", "compute_error"),
    Binding("serve.cache", "repro.serve.cache", "ServeResultCache.key"),
    Binding("serve.cache", "repro.serve.cache", "ServeResultCache.get"),
    Binding(
        "serve.cache", "repro.serve.cache", "ServeResultCache.put", amount=("puts", _stored)
    ),
    Binding("scheduler", "repro.serve.scheduler", "MicroBatchScheduler.submit"),
    Binding("scheduler", "repro.serve.scheduler", "MicroBatchScheduler.ready"),
    Binding("scheduler", "repro.serve.scheduler", "MicroBatchScheduler.flush"),
    Binding("controller.choose", "repro.serve.controller", "OnlineController.choose"),
    Binding("controller.observe", "repro.serve.controller", "OnlineController.observe"),
    Binding(
        "fleet.encode", "repro.fleet.protocol", "encode_frame", amount=("bytes", _frame_bytes)
    ),
    Binding("fleet.encode", "repro.fleet.frontend", "request_to_wire"),
    Binding("fleet.decode", "repro.fleet.protocol", "decode_body"),
    Binding("fleet.decode", "repro.fleet.frontend", "response_from_wire"),
    Binding("fleet.frontend", "repro.fleet.frontend", "PerforationFleet.serve_trace"),
)

#: layer -> (what it is, end-to-end metrics it should move, workload where).
LAYER_MAP: dict[str, tuple[str, str, str]] = {
    "kernellang.parse": ("lexer/parser", "throughput_rps latency_p50_ms", "serve-miss"),
    "perforate": ("source transforms", "throughput_rps", "serve-miss"),
    "codegen.lower": ("lowering + artifacts", "setup_s throughput_rps", "all; serve-miss"),
    "engine.launch": ("batched launch", "throughput_rps latency_tail_ms", "serve-miss"),
    "engine.reference": ("accurate reference", "throughput_rps", "serve-miss"),
    "quality.compute_error": ("error metric", "throughput_rps", "serve-miss"),
    "serve.cache": ("result LRU", "throughput_rps", "serve-hit; serve-miss"),
    "scheduler": ("micro-batching", "latency_p50_ms", "serve-hit serve-miss"),
    "controller.choose": ("config choice", "throughput_rps", "serve-hit"),
    "controller.observe": ("EWMA feedback", "no_fallback_frac model_speedup", "serve-miss"),
    "fleet.encode": ("wire encode", "throughput_rps latency_p50_ms", "fleet-hit"),
    "fleet.decode": ("wire decode", "throughput_rps latency_p50_ms", "fleet-hit"),
    "fleet.frontend": ("sharding + bookkeeping", "latency_tail_ms", "fleet-hit"),
    WAIT: ("awaiting workers", "latency_tail_ms", "fleet-hit"),
    CALL: ("unattributed", "-", "-"),
}

_now = time.monotonic_ns
_CURRENT: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


def _resolve(module_name: str, attr: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Recorder:
    """Times wrapped calls and aggregates calls / self time per layer."""

    def __init__(self) -> None:
        self.active = False
        #: layer -> [calls, self ns]
        self.totals: defaultdict[str, list[int]] = defaultdict(lambda: [0, 0])
        #: "<layer>.<quantity>" -> summed amount
        self.amounts: dict[str, float] = {}
        self.spans: list[tuple[str, int, int]] = []
        self.spans_dropped = 0
        self._restore: list[tuple[Any, str, Any]] = []

    # -- timing ---------------------------------------------------------
    def timed(self, layer: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` as one span of ``layer``; returns its result."""
        parent = _CURRENT.get()
        children: list[tuple[int, int]] = []
        token = _CURRENT.set(children)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            _CURRENT.reset(token)
            entry = self.totals[layer]
            entry[0] += 1
            entry[1] += self_ns(start, end, children) if children else end - start
            if parent is not None:
                parent.append((start, end))
            if len(self.spans) < CHROME_SPANS:
                self.spans.append((layer, start, end - start))
            else:
                self.spans_dropped += 1

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every binding in :data:`BINDINGS`; :meth:`uninstall` undoes it."""
        if self._restore:
            return
        for binding in BINDINGS:
            owner, name = _resolve(binding.module, binding.attr)
            raw = inspect.getattr_static(owner, name)
            self._restore.append((owner, name, raw))
            setattr(owner, name, self._wrapper(binding, raw))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, name, raw in reversed(self._restore):
            setattr(owner, name, raw)
        self._restore.clear()

    def _wrapper(self, binding: Binding, raw: Any) -> Any:
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        layer, timed, amounts = binding.layer, self.timed, self.amounts
        key, measure = None, None
        if binding.amount is not None:
            key, measure = f"{layer}.{binding.amount[0]}", binding.amount[1]

        def wrapper(*args, **kwargs):
            result = timed(layer, fn, *args, **kwargs)
            if measure is not None:
                amounts[key] = amounts.get(key, 0.0) + measure(args, result)
            return result

        return staticmethod(wrapper) if static else wrapper

    # -- results --------------------------------------------------------
    def calls(self, layer: str) -> int:
        return self.totals.get(layer, (0, 0))[0]

    def self_s(self, *layers: str) -> float:
        return sum(self.totals.get(layer, (0, 0))[1] for layer in layers) / 1e9

    def write_chrome_trace(self, path: str) -> str:
        from repro.obs.export import write_chrome_trace
        from repro.obs.trace import Span

        pid = os.getpid()
        tid = threading.get_ident() & 0x7FFFFFFF
        spans = [
            Span(
                name=layer,
                category="perfbench",
                start_ns=start,
                duration_ns=duration,
                span_id=i + 1,
                pid=pid,
                tid=tid,
                process="perfbench",
            )
            for i, (layer, start, duration) in enumerate(self.spans)
        ]
        return write_chrome_trace(path, spans, dropped=self.spans_dropped)


class _TimedSelector(selectors.DefaultSelector):
    """The event loop's selector; a blocking ``select()`` is a wait span."""

    def __init__(self, recorder: Recorder) -> None:
        super().__init__()
        self._recorder = recorder

    def select(self, timeout=None):
        if not self._recorder.active:
            return super().select(timeout)
        return self._recorder.timed(WAIT, super().select, timeout)


class WaitTimingPolicy(asyncio.DefaultEventLoopPolicy):
    """Event-loop policy whose new loops time their selector for ``recorder``."""

    def __init__(self, recorder: Recorder) -> None:
        super().__init__()
        self._recorder = recorder

    def new_event_loop(self) -> asyncio.AbstractEventLoop:
        return asyncio.SelectorEventLoop(_TimedSelector(self._recorder))


def render_table(recorder: Recorder, wall_s: float) -> list[str]:
    """The per-layer table: calls, self seconds, share of wall, expectations."""
    lines = [
        f"{'layer':<22} {'calls':>9} {'self_s':>9} {'share':>7}  "
        f"{'what':<22} {'should move':<30} on"
    ]
    for layer, (what, moves, where) in LAYER_MAP.items():
        calls = recorder.calls(layer)
        seconds = recorder.self_s(layer)
        share = seconds / wall_s if wall_s else 0.0
        lines.append(
            f"{layer:<22} {calls:>9} {seconds:>9.4f} {share:>7.1%}  "
            f"{what:<22} {moves:<30} {where}"
        )
    return lines
