"""Layer tracer: a ``sys.setprofile`` hook that attributes host time to layers.

A *span* opens whenever a Python call crosses from one layer's modules
into another's and closes when that call returns.  Frames outside
``repro`` (stdlib, numpy, the ledger's own callbacks) inherit the layer
of their nearest ``repro`` ancestor, and time in C functions stays with
the calling frame, so every nanosecond between :meth:`start` and
:meth:`stop` lands in exactly one layer's self time.  Frames with no
``repro`` ancestor at all are the ledger's own driver code and count as
unattributed.

The clock is read at crossings and around C calls; the per-call work is
one dict lookup and a list push/pop.  The hook still runs on every call,
return and C call, and CPython runs every bytecode on its slow path while
a profile hook is set, which together cost 4-8x — hence the separate
untraced run and ``trace.overhead_x``.  That cost is not spread evenly:
Python code is slowed throughout, a layer made of many tiny calls most of
all, while time inside a C call (``json.dumps``, a numpy pass) is not
slowed at all.  :meth:`LayerTracer.estimate_ns` undoes this in three
steps: take out what the hook itself costs per Python call, C call and
crossing (:func:`calibrate` measures those on this host); keep the time
measured inside leaf C calls as it is; and scale what is left — Python
bytecode — by the one factor that makes the layers add up to the
*untraced* wall time of the same run.  That factor is reported as
``python_slowdown_x`` beside the raw self times.

Aggregates are kept per (parent layer -> layer) edge; the first
``max_spans`` raw spans are kept as well (name, start, end, parent span,
engine-event id) for :func:`write_spans`.
"""

from __future__ import annotations

import json
import os
import sys
import time
import types
from dataclasses import dataclass
from typing import Callable, Iterable

from .spec import LAYERS, MAX_SPANS, layer_of

UNATTRIBUTED = len(LAYERS)  # index of the pseudo-layer for ledger frames
_INHERIT = -1


def repro_classifier(package_dir: str) -> Callable[[str], int]:
    """Map a code object's filename to a layer index (or ``_INHERIT``)."""
    root = os.path.join(os.path.realpath(package_dir), "")
    index = {name: i for i, name in enumerate(LAYERS)}

    def classify(filename: str) -> int:
        if not filename.startswith(root):
            real = os.path.realpath(filename)
            if not real.startswith(root):
                return _INHERIT
            filename = real
        return index[layer_of(filename[len(root):].replace(os.sep, "/"))]

    return classify


class LayerTracer:
    """Attribute wall time between :meth:`start` and :meth:`stop` to layers."""

    def __init__(
        self,
        classify: Callable[[str], int],
        *,
        dispatch_codes: Iterable[object] = (),
        max_spans: int = MAX_SPANS,
    ) -> None:
        n = len(LAYERS) + 1
        self.n = n
        self.self_ns = [0] * n
        #: calls crossing parent -> child, indexed ``parent * n + child``.
        self.edge_calls = [0] * (n * n)
        #: Python calls / C calls seen while each layer was current.
        self.py_calls = [0] * n
        self.c_calls = [0] * n
        #: Time measured inside C calls that did not call back into Python.
        self.c_ns = [0] * n
        #: raw spans: [name, start_ns, end_ns, parent_span, event_id].
        self.spans: list[list] = []
        self.events = 0
        self.wall_ns = 0
        self._classify = classify
        self._dispatch = frozenset(dispatch_codes)
        self._max_spans = max_spans
        self._t0 = 0

    # The hook is a closure over locals: attribute access on ``self`` in a
    # function called millions of times is measurable.
    def _make_hook(self):
        n = self.n
        self_ns = self.self_ns
        edge_calls = self.edge_calls
        py_calls = self.py_calls
        c_calls = self.c_calls
        c_ns = self.c_ns
        spans = self.spans
        max_spans = self._max_spans
        classify = self._classify
        dispatch = self._dispatch
        sim = LAYERS.index("sim")
        clock = time.perf_counter_ns
        code_layer: dict = {}
        stack = [UNATTRIBUTED]  # layer of each live Python frame
        span_stack = [-1]  # open span ids (-1 = not recorded)
        last_t = clock()
        events = 0
        c_t0 = 0  # start of the open leaf C call (0 = none)

        def hook(frame, event, arg):
            nonlocal last_t, events, c_t0
            if event == "call":
                c_t0 = 0  # the C call we were in called back into Python
                code = frame.f_code
                raw = code_layer.get(code)
                if raw is None:
                    raw = code_layer[code] = classify(code.co_filename)
                cur = stack[-1]
                if (
                    cur == sim
                    and raw != sim
                    and frame.f_back is not None
                    and frame.f_back.f_code in dispatch
                ):
                    events += 1
                lay = cur if raw < 0 else raw
                stack.append(lay)
                py_calls[lay] += 1
                if lay != cur:
                    now = clock()
                    self_ns[cur] += now - last_t
                    last_t = now
                    edge_calls[cur * n + lay] += 1
                    if len(spans) < max_spans:
                        span_stack.append(len(spans))
                        # co_qualname is new in Python 3.11.
                        name = getattr(code, "co_qualname", code.co_name)
                        spans.append([
                            f"{LAYERS[lay]}:{name}",
                            now, None, span_stack[-2], events,
                        ])
                    else:
                        span_stack.append(-1)
            elif event == "return":
                if len(stack) == 1:
                    return  # a frame that was live before start()
                lay = stack.pop()
                cur = stack[-1]
                if lay != cur:
                    now = clock()
                    self_ns[lay] += now - last_t
                    last_t = now
                    sid = span_stack.pop()
                    if sid >= 0:
                        spans[sid][2] = now
            elif event == "c_call":
                c_calls[stack[-1]] += 1
                c_t0 = clock()
            elif c_t0:  # c_return / c_exception of a leaf C call
                c_ns[stack[-1]] += clock() - c_t0
                c_t0 = 0

        def finish() -> int:
            now = clock()
            self_ns[stack[-1]] += now - last_t
            return events

        return hook, finish

    def start(self) -> None:
        hook, self._finish = self._make_hook()
        self._t0 = time.perf_counter_ns()
        sys.setprofile(hook)

    def stop(self) -> None:
        sys.setprofile(None)
        self.events = self._finish()
        self.wall_ns = time.perf_counter_ns() - self._t0

    # ------------------------------------------------------------------
    def calls_into(self, layer: int) -> int:
        n = self.n
        return sum(
            self.edge_calls[parent * n + layer]
            for parent in range(n)
            if parent != layer
        )

    def estimate_ns(
        self, cost: "HookCost", untraced_wall_ns: float
    ) -> tuple[list[float], float]:
        """Untraced-equivalent self time per layer, and the Python slowdown.

        See the module docstring for the model.  The estimates add up to
        ``untraced_wall_ns`` by construction.
        """
        c_true, python = [], []
        for layer in range(self.n):
            c_calls = self.c_calls[layer]
            c_true.append(max(0.0, self.c_ns[layer] - cost.c_bias_ns * c_calls))
            python.append(max(
                0.0,
                self.self_ns[layer]
                - c_true[layer]
                - cost.py_call_ns * self.py_calls[layer]
                - cost.c_call_ns * c_calls
                - cost.crossing_ns * self.calls_into(layer),
            ))
        python_budget = untraced_wall_ns - sum(c_true)
        slowdown = sum(python) / python_budget if python_budget > 0 else 1.0
        slowdown = max(slowdown, 1e-9)
        return [p / slowdown + c for p, c in zip(python, c_true)], slowdown

    def edges(self) -> dict[str, int]:
        """Non-zero ``"parent->child": calls`` aggregates."""
        names = LAYERS + ("unattributed",)
        n = self.n
        return {
            f"{names[p]}->{names[c]}": self.edge_calls[p * n + c]
            for p in range(n)
            for c in range(n)
            if self.edge_calls[p * n + c]
        }


def write_spans(path: str, tracer: LayerTracer, *, workload: str) -> None:
    """Write the kept raw spans as JSON lines (times relative to start)."""
    t0 = tracer._t0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "workload": workload,
            "spans_kept": len(tracer.spans),
            "fields": ["id", "name", "start_ns", "end_ns", "parent", "event"],
        }) + "\n")
        for sid, (name, start, end, parent, event) in enumerate(tracer.spans):
            fh.write(json.dumps([
                sid, name, start - t0,
                None if end is None else end - t0,
                None if parent < 0 else parent, event,
            ]) + "\n")


@dataclass(frozen=True)
class HookCost:
    """What the hook adds, in ns, per traced occurrence on this host."""

    py_call_ns: float  # a Python call and its return, same layer
    c_call_ns: float  # a C call and its return (clock reads included)
    crossing_ns: float  # extra for a call that opens a span
    c_bias_ns: float  # what a zero-length C call measures as its own time


_CALIBRATION_SOURCE = """
def callee():
    pass

def py_loop(n):
    for _ in range(n):
        callee()

def c_loop(n):
    x = ()
    for _ in range(n):
        len(x)
"""


def calibrate(calls: int = 100_000, rounds: int = 3) -> HookCost:
    """Time the hook on three synthetic loops (best of ``rounds``)."""
    # Two copies of the same code under different fake filenames, so the
    # classifier can put caller and callee in different layers.
    spaces = {}
    for tag in ("a", "b"):
        spaces[tag] = {}
        exec(compile(_CALIBRATION_SOURCE, f"<ledger-calibration-{tag}>", "exec"),
             spaces[tag])
    a, b = spaces["a"], spaces["b"]

    # a's loop calling b's callee: every call crosses a layer boundary.
    crossing_loop = types.FunctionType(
        a["py_loop"].__code__, {"callee": b["callee"]}
    )

    def classify(filename: str) -> int:
        if filename == "<ledger-calibration-a>":
            return 0
        if filename == "<ledger-calibration-b>":
            return 1
        return _INHERIT

    c_bias = float("inf")

    def per_call(fn, traced: bool) -> float:
        nonlocal c_bias
        best = float("inf")
        for _ in range(rounds):
            tracer = LayerTracer(classify, max_spans=0)
            if traced:
                tracer.start()
            t0 = time.perf_counter_ns()
            try:
                fn(calls)
            finally:
                elapsed = time.perf_counter_ns() - t0
                if traced:
                    tracer.stop()
            best = min(best, elapsed)
            if tracer.c_calls[0] >= calls:
                c_bias = min(c_bias, tracer.c_ns[0] / tracer.c_calls[0])
        return best / calls

    py = per_call(a["py_loop"], True) - per_call(a["py_loop"], False)
    c = per_call(a["c_loop"], True) - per_call(a["c_loop"], False)
    cross = per_call(crossing_loop, True) - per_call(crossing_loop, False)
    return HookCost(
        py_call_ns=max(0.0, py),
        c_call_ns=max(0.0, c),
        crossing_ns=max(0.0, cross - py),
        c_bias_ns=c_bias,
    )


def code_objects(functions: Iterable[object]) -> list:
    """``__code__`` of every pure-Python function in ``functions``."""
    codes = (getattr(fn, "__code__", None) for fn in functions)
    return [code for code in codes if code is not None]
