"""What one ``Session.run`` costs the host: compile once, invoke many.

Times, with no execution engine attached (pure tensor cost, real wall
time), one Lite ``invoke`` of the ``inception_v4`` and ``densenet``
stand-ins and one ``mnist_cnn`` training step (forward, gradients,
SGD update; batch 50), and reports what the session's plan holds: its
step count and what compiling it costs.  ``mnist_cnn_train_step_op_us``
splits the training step's host time by op type: the median, over the
steps, of the microseconds each type's kernels took in one step (timed
on a second copy of the model, whose kernels are wrapped in a timer
before its plan is compiled, so the untimed step above pays nothing
for it).  ``*_large_allocs`` counts the
allocations of at least 64 KiB one steady-state call makes: under
``tracemalloc``, every line of ``repro/tensor`` code after which the
traced total stands >= 64 KiB higher than before it (a buffer that is
allocated and kept, or returned, counts once, in the function that
made it; the im2col columns and the padded copy were two such per
larger k > 1 convolution).

Uses only what ``Session`` and ``Interpreter`` offered before plans
existed, so the predecessor's numbers come from the same file:
``PYTHONPATH=<parent checkout>/src python -m pytest
benchmarks/bench_tensor_plan.py -q -s -o addopts=""`` first, then the
same with ``PYTHONPATH=src``; each run keeps the section it replaces
under ``previous``.  ``*_plan_*`` reads ``None`` on a tree without plans.
"""

import os
import sys

# One BLAS thread, set before numpy is imported: two on a 2-core box
# turn a 9 ms invoke into anything between 9 and 200 ms.
_BLAS_PINNED = "numpy" not in sys.modules
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import statistics
import time
import tracemalloc

import numpy as np

import repro.tensor as tf
from harness import load_bench, print_table, record, save_bench
from repro.models.zoo import build_model, pretrained_lite_model
from repro.tensor.lite import Interpreter

LITE_MODELS = ("inception_v4", "densenet")
WARMUP = 10
INVOKES = 200
TRAIN_STEPS = 60
BATCH = 50
LARGE = 64 * 1024
TENSOR_DIR = os.path.dirname(tf.__file__)


def _timed_us(fn, repeats):
    """(median, best) host microseconds of ``fn()`` after a warm-up."""
    for _ in range(WARMUP):
        fn()
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - started) * 1e6)
    return statistics.median(samples), min(samples)


def _large_allocations(fn):
    """``{function name: stretches of it that left >= 64 KiB more traced}``
    over one call of ``fn`` (already warm).  A stretch is the code
    between two trace events (call, line, return) of ``repro/tensor``
    frames; what it allocates and keeps is charged to the function that
    was running, never again to its callers."""
    counts = {}
    last = [0, None]  # traced bytes at the previous event, function running since

    def event(frame, kind, arg):
        now = tracemalloc.get_traced_memory()[0]
        if last[1] is not None and now - last[0] >= LARGE:
            counts[last[1]] = counts.get(last[1], 0) + 1
        running = frame.f_back if kind == "return" else frame
        last[:] = [now, running.f_code.co_name]
        return event

    def trace(frame, kind, arg):
        if not frame.f_code.co_filename.startswith(TENSOR_DIR):
            return None
        return event(frame, kind, arg)

    tracemalloc.start()
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    return counts


def _measure(call, repeats, session, compile_plan):
    """One table row: timing and large allocations of ``call()``, and
    what ``session``'s one plan holds (None on a tree without plans;
    ``compile_plan()`` rebuilds it after the cache was emptied)."""
    median, best = _timed_us(call, repeats)
    allocations = _large_allocations(call)
    row = {
        "us": median,
        "best_us": best,
        "large_allocs": sum(allocations.values()),
        "large_allocs_in_extract_patches": allocations.get("_extract_patches", 0),
        "plan_steps": None,
        "plan_compile_us": None,
    }
    plans = getattr(session, "_plans", None)
    if plans:
        (plan,) = plans.values()
        row["plan_steps"] = len(plan.steps)
        row["plan_compile_us"] = float("inf")
        for _ in range(5):
            plans.clear()
            started = time.perf_counter()
            compile_plan()
            row["plan_compile_us"] = min(
                row["plan_compile_us"], (time.perf_counter() - started) * 1e6
            )
    return row


def _lite_invoke(name):
    interpreter = Interpreter(pretrained_lite_model(name, seed=3))
    interpreter.allocate_tensors()
    image = np.random.default_rng(0).normal(size=(1, 32, 32, 3)).astype(np.float32)
    session, imported = interpreter._session, interpreter._imported
    return _measure(
        lambda: interpreter.invoke(image),
        INVOKES,
        session,
        lambda: session.prepare(list(imported.outputs), imported.inputs),
    )


def _train_graph():
    """(graph, fetches, feed) of one ``mnist_cnn`` SGD step at batch 50."""
    built = build_model("mnist_cnn", seed=3)
    with built.graph.as_default():
        labels = tf.placeholder("float32", (None, 10), name="labels")
        loss = tf.losses.softmax_cross_entropy(labels, built.logits)
        train = tf.optimizers.GradientDescent(0.05).minimize(loss)
    rng = np.random.default_rng(1)
    feed = {
        built.input: rng.normal(size=(BATCH, 28, 28, 1)).astype(np.float32),
        labels: np.eye(10, dtype=np.float32)[rng.integers(0, 10, BATCH)],
    }
    return built.graph, [train, loss], feed


def _train_step():
    graph, fetches, feed = _train_graph()
    session = tf.Session(graph=graph)
    return _measure(
        lambda: session.run(fetches, feed),
        TRAIN_STEPS,
        session,
        lambda: session.prepare(fetches, list(feed)),
    )


def _train_step_by_op_type():
    """``{op type: median host us its kernels take in one step}``."""
    graph, fetches, feed = _train_graph()
    spent = {}
    for op in graph.operations:
        def timed(op, *args, _kernel=op._compute, **kwargs):
            started = time.perf_counter()
            try:
                return _kernel(op, *args, **kwargs)
            finally:
                spent[op.op_type] = spent.get(op.op_type, 0.0) + time.perf_counter() - started

        op._compute = timed
    session = tf.Session(graph=graph)
    for _ in range(WARMUP):
        session.run(fetches, feed)
    samples = {}
    for _ in range(TRAIN_STEPS):
        spent.clear()
        session.run(fetches, feed)
        for op_type, seconds in spent.items():
            samples.setdefault(op_type, []).append(seconds * 1e6)
    medians = {op_type: statistics.median(us) for op_type, us in samples.items()}
    return dict(sorted(medians.items(), key=lambda item: -item[1]))


def test_tensor_plan(benchmark=None):
    rows = {f"{name}_invoke": _lite_invoke(name) for name in LITE_MODELS}
    rows["mnist_cnn_train_step"] = _train_step()
    by_op_type = _train_step_by_op_type()

    def cell(value):
        return "-" if value is None else f"{value:.0f}"

    print_table(
        "Tensor plan — host cost per Session.run, no engine (median of "
        f"{INVOKES} invokes / {TRAIN_STEPS} steps at batch {BATCH}, best in brackets)",
        ("run", "us", "allocs >= 64 KiB", "of which im2col", "plan steps", "compile us"),
        [
            (
                label,
                f"{row['us']:.0f} [{row['best_us']:.0f}]",
                row["large_allocs"],
                row["large_allocs_in_extract_patches"],
                cell(row["plan_steps"]),
                cell(row["plan_compile_us"]),
            )
            for label, row in rows.items()
        ],
    )
    print_table(
        f"mnist_cnn training step — host us by op type (median of {TRAIN_STEPS} steps)",
        ("op type", "us", "share of the summed kernels"),
        [
            (op_type, f"{us:.0f}", f"{us / sum(by_op_type.values()):.1%}")
            for op_type, us in by_op_type.items()
        ],
    )
    metrics = {
        f"{label}_{key}": round(value, 1) if isinstance(value, float) else value
        for label, row in rows.items()
        for key, value in row.items()
    }
    metrics["mnist_cnn_train_step_op_us"] = {
        op_type: round(us, 1) for op_type, us in by_op_type.items()
    }
    metrics["blas_threads_pinned"] = _BLAS_PINNED
    record(benchmark, **metrics)
    # No entry overwritten without its predecessor kept (ROADMAP).
    previous = load_bench("tensor_plan")
    previous.pop("previous", None)
    save_bench("tensor_plan", {**metrics, "previous": previous})
    for label, row in rows.items():
        if row["plan_steps"] is not None:
            assert row["large_allocs_in_extract_patches"] == 0, label
