"""Graph execution: the TF-1.x ``Session``.

``Session.run(fetches, feed_dict)`` evaluates exactly the subgraph the
fetches need, each op once per run, honouring control dependencies and
feeding placeholders.  The graph is walked once per *(fetch structure,
set of fed tensors)*: the walk is compiled into a :class:`_Plan` — a flat
list of steps in the order a depth-first evaluation visits them (control
inputs first, then inputs left to right), each step holding its kernel
and integer slots for its inputs and outputs — and every later run with
the same fetches and feeds is one loop over that list.  Plans are
dropped when ``Graph.version`` moves (an op or control edge was added),
and they hold no variable or constant *values*: state ops are ordinary
steps whose kernels read the current value on every run.

A plan also owns what a run would otherwise re-derive or re-allocate:

- the run's :class:`RunStats`.  Every FLOP function and every ``nbytes``
  term reads shapes only, so the per-step costs are recorded on the
  first run of each *(plan, fed shapes and dtypes)* and later runs take
  a copy of their sum (a run that fails part-way is charged the costs of
  the steps that completed);
- the convolution scratch (padded input, and one columns buffer that
  holds im2col's columns and col2im's tap-major slabs in turn), lent to
  the convolution kernels on every call and never returned from them, so
  no fetched value aliases it.

When an :class:`ExecutionEngine` is attached, the run's aggregate work
(scaled by the graph's ``cost_scale``) is charged to the simulated clock
— so the *same* session code measures NATIVE, SIM, and HW latency in the
benchmarks.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import GraphError
from repro.tensor.engine import ExecutionEngine, RunStats
from repro.tensor.graph import Graph, Operation, Tensor, get_default_graph
from repro.tensor.ops import flops_of

Fetch = Union[Tensor, Operation, str]

#: Op types whose outputs are persistent state, not per-run activations.
_STATE_OPS = frozenset({"variable", "const", "placeholder"})

#: Op types whose kernels take the plan's scratch as ``scratch=``.
_SCRATCH_OPS = frozenset({"conv2d", "conv2d_grad_filters", "conv2d_grad_input"})

#: Fed-shape signatures a plan remembers costs (and keeps scratch) for;
#: one more and it forgets them all, which bounds what a caller with
#: ever-changing batch sizes can make a plan hold.
_MAX_SIGNATURES = 8

#: One step's contribution to a RunStats:
#: (flops, weight_bytes, activation_bytes, op_bytes).
_Cost = Tuple[int, int, int, int]


def _step_cost(op: Operation, input_values: List[Any], outputs: Sequence[Any]) -> _Cost:
    out0 = outputs[0]
    if op.op_type in _STATE_OPS:
        # Variables, and the constants frozen models carry their weights
        # as, are persistent read-only data, not activations.
        return (0, out0.nbytes if isinstance(out0, np.ndarray) else 0, 0, 0)
    flops = flops_of(op, input_values, out0)
    out_bytes = sum(v.nbytes for v in outputs if isinstance(v, np.ndarray))
    in_bytes = sum(v.nbytes for v in input_values if isinstance(v, np.ndarray))
    return (flops, 0, out_bytes, in_bytes + out_bytes)


def _sum_costs(costs: Sequence[_Cost]) -> RunStats:
    stats = RunStats(ops=len(costs))
    for flops, weight_bytes, activation_bytes, op_bytes in costs:
        stats.flops += flops
        stats.weight_bytes += weight_bytes
        stats.activation_bytes += activation_bytes
        if op_bytes > stats.max_op_bytes:
            stats.max_op_bytes = op_bytes
    return stats


def _gather(template: Any, values: List[Any]) -> Any:
    """Fill a compiled fetch template (see ``_Compiler.fetch``)."""
    if template is None:
        return None
    kind = template.__class__
    if kind is int:
        return values[template]
    if kind is dict:
        return {key: _gather(item, values) for key, item in template.items()}
    container, items = template
    return container(_gather(item, values) for item in items)


class _Plan:
    """What one (fetch structure, set of fed tensors) compiles to."""

    __slots__ = (
        "steps", "n_slots", "feed_slots", "fetch", "unfed", "costs", "scratch",
    )

    def __init__(self) -> None:
        #: ``(kernel, op, input slots, output slot or tuple of slots)``.
        self.steps: List[Tuple[Any, Operation, Tuple[int, ...], Any]] = []
        self.n_slots = 0
        self.feed_slots: Dict[Tensor, int] = {}
        self.fetch: Any = None
        #: Placeholders the fetches need and the feeds do not cover.
        self.unfed: List[Operation] = []
        #: Fed (shape, dtype) signature -> (summed stats, per-step costs).
        self.costs: Dict[Any, Tuple[RunStats, List[_Cost]]] = {}
        #: Buffers lent to the kernels in ``_SCRATCH_OPS``.
        self.scratch: Dict[Any, Any] = {}


class _Compiler:
    """One depth-first walk: ``slots`` holds every tensor that has a
    value at this point of the walk, exactly as a per-run ``values`` dict
    would, so the step order, the skipped ops and the value each fetch
    sees are those of evaluating recursively."""

    def __init__(self, fed: Sequence[Tensor]) -> None:
        self.plan = _Plan()
        self.slots: Dict[Tensor, int] = {}
        self.done: set = set()
        for tensor in fed:
            self.plan.feed_slots[tensor] = self.slot_for(tensor)

    def slot_for(self, tensor: Tensor) -> int:
        # A tensor fed *and* recomputed (one output of a multi-output op
        # was fed, another was needed) gets a new slot: what was compiled
        # before keeps reading the fed value, what follows reads the
        # computed one.
        slot = self.slots[tensor] = self.plan.n_slots
        self.plan.n_slots += 1
        return slot

    def visit(self, op: Operation) -> None:
        if op in self.done:
            return
        for dep in op.control_inputs:
            self.visit(dep)
        slots = self.slots
        inputs = []
        for tensor in op.inputs:
            if tensor not in slots:
                self.visit(tensor.op)
            inputs.append(slots[tensor])
        self.done.add(op)
        # A fed tensor may satisfy this op's (sole) output even though
        # the op itself never runs (feeding intermediate tensors).
        if all(out in slots for out in op.outputs):
            return
        plan = self.plan
        kernel = op._compute
        if op.op_type in _SCRATCH_OPS:
            kernel = partial(kernel, scratch=plan.scratch)
        elif op.op_type == "placeholder":
            plan.unfed.append(op)
        outputs = tuple(self.slot_for(out) for out in op.outputs)
        plan.steps.append(
            (kernel, op, tuple(inputs), outputs[0] if len(outputs) == 1 else outputs)
        )

    def fetch(self, key: Any) -> Any:
        """The fetch template: a slot for a tensor, None for an
        operation, ``(container type, items)`` for a list or tuple, a
        dict for a dict."""
        kind = key.__class__
        if kind is Tensor:
            if key not in self.slots:
                self.visit(key.op)
            return self.slots[key]
        if kind is Operation:
            self.visit(key)
            return None
        container, items = key
        if container is dict:
            return {name: self.fetch(item) for name, item in items}
        return (container, [self.fetch(item) for item in items])


class Session:
    """Executes subgraphs, optionally charging an execution engine."""

    def __init__(
        self,
        graph: Optional[Graph] = None,
        engine: Optional[ExecutionEngine] = None,
        threads: int = 1,
    ) -> None:
        self.graph = graph or get_default_graph()
        self.engine = engine
        self.threads = threads
        self.last_stats: Optional[RunStats] = None
        self._plans: Dict[Any, _Plan] = {}
        self._plans_version = self.graph.version

    # ------------------------------------------------------------------

    def run(
        self,
        fetches: Union[Fetch, Sequence[Fetch], Dict[str, Fetch]],
        feed_dict: Optional[Dict[Union[Tensor, str], Any]] = None,
    ) -> Any:
        """Evaluate ``fetches``; returns matching structure of numpy values."""
        feed = self._normalize_feed(feed_dict or {})
        plan = self._plan_for(fetches, feed)
        values: List[Any] = [None] * plan.n_slots
        signature = []
        for tensor, slot in plan.feed_slots.items():
            array = values[slot] = feed[tensor]
            signature.append((array.shape, array.dtype))
        signature = tuple(signature)
        known = plan.costs.get(signature)
        recorded: Optional[List[_Cost]] = [] if known is None else None
        steps = plan.steps
        done = 0
        try:
            for kernel, op, inputs, out in steps:
                args = [values[slot] for slot in inputs]
                produced = kernel(op, *args)
                if out.__class__ is int:
                    values[out] = produced
                    produced = (produced,)
                else:
                    produced = list(produced)
                    if len(produced) != len(out):
                        raise GraphError(
                            f"op {op.name!r} produced {len(produced)} values for "
                            f"{len(out)} outputs"
                        )
                    for slot, value in zip(out, produced):
                        values[slot] = value
                if recorded is not None:
                    recorded.append(_step_cost(op, args, produced))
                done += 1
            return _gather(plan.fetch, values)
        finally:
            if recorded is not None:
                stats = _sum_costs(recorded)
                if done == len(steps):
                    if len(plan.costs) >= _MAX_SIGNATURES:
                        plan.costs.clear()
                        plan.scratch.clear()
                    plan.costs[signature] = (replace(stats), recorded)
            elif done == len(steps):
                stats = replace(known[0])
            else:
                stats = _sum_costs(known[1][:done])
            self.last_stats = stats
            if self.engine is not None:
                graph = self.graph
                charged = RunStats(
                    flops=int(stats.flops * graph.cost_scale),
                    ops=int(stats.ops * graph.op_scale),
                    weight_bytes=int(stats.weight_bytes * graph.weight_scale),
                    activation_bytes=int(
                        stats.activation_bytes * graph.activation_scale
                    ),
                    max_op_bytes=int(stats.max_op_bytes * graph.activation_scale),
                )
                self.engine.charge_run(charged, threads=self.threads)

    def prepare(
        self,
        fetches: Union[Fetch, Sequence[Fetch], Dict[str, Fetch]],
        feeds: Sequence[Union[Tensor, str]] = (),
    ) -> None:
        """Compile the plan for ``fetches`` given that ``feeds`` will be
        fed, without running anything — so a caller that knows both up
        front fails at load, not at its first request."""
        fed = {self._feed_tensor(key): None for key in feeds}
        plan = self._plan_for(fetches, fed)
        if plan.unfed:
            names = ", ".join(repr(op.name) for op in plan.unfed)
            raise GraphError(f"fetches need placeholders that are not fed: {names}")

    # ------------------------------------------------------------------

    def _plan_for(self, fetches: Any, feed: Dict[Tensor, Any]) -> _Plan:
        graph = self.graph
        if self._plans_version != graph.version:
            self._plans.clear()
            self._plans_version = graph.version
        fetch_key = self._fetch_key(fetches)
        key = (fetch_key, frozenset(feed))
        plan = self._plans.get(key)
        if plan is None:
            compiler = _Compiler(list(feed))
            compiler.plan.fetch = compiler.fetch(fetch_key)
            plan = self._plans[key] = compiler.plan
        return plan

    def _fetch_key(self, fetches: Any) -> Any:
        """``fetches`` with names resolved and containers made hashable:
        equal keys are fetches that evaluate the same tensors in the same
        order into the same structure."""
        kind = fetches.__class__
        if kind is Tensor or kind is Operation:
            return fetches
        if isinstance(fetches, (list, tuple)):
            return (kind, tuple(self._fetch_key(item) for item in fetches))
        if isinstance(fetches, dict):
            return (
                dict,
                tuple((name, self._fetch_key(item)) for name, item in fetches.items()),
            )
        if isinstance(fetches, str):
            return self.graph.get_tensor(fetches)
        raise GraphError(f"cannot fetch object of type {type(fetches).__name__}")

    def _feed_tensor(self, key: Union[Tensor, str]) -> Tensor:
        if isinstance(key, str):
            return self.graph.get_tensor(key)
        if key.graph is not self.graph:
            # Slots are per plan: a tensor of another graph whose name
            # happens to exist here would land in some other tensor's.
            raise GraphError(
                f"cannot feed {key.name!r}: it belongs to {key.graph!r} "
                f"(id {id(key.graph):#x}), this session runs {self.graph!r} "
                f"(id {id(self.graph):#x})"
            )
        return key

    def _normalize_feed(
        self, feed_dict: Dict[Union[Tensor, str], Any]
    ) -> Dict[Tensor, np.ndarray]:
        feed: Dict[Tensor, np.ndarray] = {}
        for key, value in feed_dict.items():
            tensor = self._feed_tensor(key)
            array = np.asarray(value)
            if array.dtype == np.float64 and tensor.dtype == "float32":
                array = array.astype(np.float32)
            self._check_feed_shape(tensor, array)
            feed[tensor] = array
        return feed

    @staticmethod
    def _check_feed_shape(tensor: Tensor, array: np.ndarray) -> None:
        if len(array.shape) != len(tensor.shape):
            raise GraphError(
                f"feed for {tensor.name!r} has rank {len(array.shape)}, "
                f"expected {len(tensor.shape)}"
            )
        for actual, declared in zip(array.shape, tensor.shape):
            if declared is not None and actual != declared:
                raise GraphError(
                    f"feed for {tensor.name!r} has shape {array.shape}, "
                    f"declared {tensor.shape}"
                )

    # ------------------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass
