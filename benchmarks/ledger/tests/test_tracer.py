"""The layer tracer on synthetic layers whose true cost is known."""

import hashlib
import time

from benchmarks.ledger import tracer as tr
from benchmarks.ledger.spec import LAYERS

SIM, KERNEL, RESILIENCE = (LAYERS.index(n) for n in ("sim", "kernel", "resilience"))

SOURCE = """
def python_work(n):
    total = 0
    for i in range(n):
        total += i * i % 7
    return total

def c_work(blob, rounds, sha256):
    for _ in range(rounds):
        sha256(blob).digest()

def dispatch(callbacks):
    for callback in callbacks:
        callback()
"""


def load(tag):
    space = {}
    exec(compile(SOURCE, f"<fake-{tag}>", "exec"), space)
    return space


def classify(filename):
    return {"<fake-sim>": SIM, "<fake-kernel>": KERNEL,
            "<fake-resilience>": RESILIENCE}.get(filename, -1)


def best(fn, *args):
    out = float("inf")
    for _ in range(3):
        t0 = time.perf_counter_ns()
        fn(*args)
        out = min(out, time.perf_counter_ns() - t0)
    return out


def attribution_errors():
    """One traced run of a Python layer and a C layer: (raw, estimate) error."""
    sim, kernel, resilience = load("sim"), load("kernel"), load("resilience")
    blob = b"x" * (1 << 20)
    python_n, c_rounds = 200_000, 20

    def kernel_cb():
        kernel["python_work"](python_n)

    def resilience_cb():
        resilience["c_work"](blob, c_rounds, hashlib.sha256)

    callbacks = [kernel_cb, resilience_cb] * 3
    true_kernel = best(kernel["python_work"], python_n) * 3
    true_resilience = best(resilience["c_work"], blob, c_rounds, hashlib.sha256) * 3
    true_share = true_resilience / (true_kernel + true_resilience)

    tracer = tr.LayerTracer(
        classify, dispatch_codes=[sim["dispatch"].__code__], max_spans=100
    )
    tracer.start()
    try:
        sim["dispatch"](callbacks)
    finally:
        tracer.stop()

    # Raw self times partition the traced wall time.
    assert abs(sum(tracer.self_ns) - tracer.wall_ns) <= 0.02 * tracer.wall_ns
    # Every callback out of the dispatch loop is one engine event.
    assert tracer.events == len(callbacks)
    # The callbacks are test-module frames: they inherit the dispatcher's layer,
    # so the crossings are sim -> kernel and sim -> resilience.
    edges = tracer.edges()
    assert edges["sim->kernel"] == 3 and edges["sim->resilience"] == 3

    raw_share = tracer.self_ns[RESILIENCE] / (
        tracer.self_ns[RESILIENCE] + tracer.self_ns[KERNEL])
    estimate, slowdown = tracer.estimate_ns(
        tr.calibrate(calls=20_000), true_kernel + true_resilience)
    est_share = estimate[RESILIENCE] / (estimate[RESILIENCE] + estimate[KERNEL])
    # Tracing slows the Python layer and not the C one, so the raw share of
    # the C-heavy layer is too small.
    assert slowdown > 1.2
    assert raw_share < true_share
    return abs(raw_share - true_share), abs(est_share - true_share)


def test_attribution_survives_uneven_tracing_overhead():
    # The truth is timed before the traced run; when the shared host changes
    # speed in between, both errors are off.  Three tries, the best one counts.
    raw_error, estimate_error = min(
        (attribution_errors() for _ in range(3)), key=lambda errors: errors[1]
    )
    # The estimate must land nearer the truth than the raw share.
    assert estimate_error < raw_error
    assert estimate_error < 0.15


def test_spans_link_to_their_parents(tmp_path):
    sim, kernel = load("sim"), load("kernel")

    def callback():
        kernel["python_work"](10)

    tracer = tr.LayerTracer(classify, dispatch_codes=[sim["dispatch"].__code__])
    tracer.start()
    try:
        sim["dispatch"]([callback, callback])
    finally:
        tracer.stop()
    names = [span[0] for span in tracer.spans]
    assert names == ["sim:dispatch", "kernel:python_work", "kernel:python_work"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]  # parent span ids
    assert [span[4] for span in tracer.spans] == [0, 1, 2]  # engine-event ids
    assert all(span[2] is not None and span[2] >= span[1] for span in tracer.spans)

    path = tmp_path / "spans.jsonl"
    tr.write_spans(str(path), tracer, workload="synthetic")
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + len(tracer.spans)


def test_span_cap_keeps_aggregates():
    sim, kernel = load("sim"), load("kernel")
    tracer = tr.LayerTracer(classify, max_spans=2)
    tracer.start()
    try:
        sim["dispatch"]([lambda: kernel["python_work"](1)] * 10)
    finally:
        tracer.stop()
    assert len(tracer.spans) == 2
    assert tracer.edges()["sim->kernel"] == 10
