"""``Session`` as it stood before plans were compiled: the recursive
evaluator that re-walks the graph, formats tensor names and re-derives
the run's accounting on every call, kept verbatim (class renamed) as the
oracle ``test_property_graphs.py`` and ``test_session_plan.py`` compare
the compiled plan with: bitwise-equal fetches, the same kernel call
order, equal ``last_stats`` and an equal ``RunStats`` handed to the
engine.  Not collected by pytest (no ``test_`` prefix)."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.errors import GraphError
from repro.tensor.engine import ExecutionEngine, RunStats
from repro.tensor.graph import Graph, Operation, Tensor, get_default_graph
from repro.tensor.ops import flops_of

Fetch = Union[Tensor, Operation, str]

#: Op types whose outputs are persistent state, not per-run activations.
_STATE_OPS = frozenset({"variable", "const", "placeholder"})


class ReferenceSession:
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

    # ------------------------------------------------------------------

    def run(
        self,
        fetches: Union[Fetch, Sequence[Fetch], Dict[str, Fetch]],
        feed_dict: Optional[Dict[Union[Tensor, str], Any]] = None,
    ) -> Any:
        """Evaluate ``fetches``; returns matching structure of numpy values."""
        feed = self._normalize_feed(feed_dict or {})
        values: Dict[str, Any] = dict(feed)
        executed: Dict[str, bool] = {}
        stats = RunStats()

        def eval_tensor(tensor: Tensor) -> Any:
            if tensor.name in values:
                return values[tensor.name]
            run_op(tensor.op)
            return values[tensor.name]

        def run_op(op: Operation) -> None:
            if executed.get(op.name):
                return
            for dep in op.control_inputs:
                run_op(dep)
            input_values = [eval_tensor(t) for t in op.inputs]
            # A fed tensor may satisfy this op's (sole) output even though
            # the op itself never runs (feeding intermediate tensors).
            if all(out.name in values for out in op.outputs):
                executed[op.name] = True
                return
            result = op.compute(*input_values)
            if len(op.outputs) == 1:
                outputs = [result]
            else:
                outputs = list(result)
                if len(outputs) != len(op.outputs):
                    raise GraphError(
                        f"op {op.name!r} produced {len(outputs)} values for "
                        f"{len(op.outputs)} outputs"
                    )
            for out, value in zip(op.outputs, outputs):
                values[out.name] = value
            executed[op.name] = True
            self._account(op, input_values, outputs, stats)

        try:
            result = self._eval_fetches(fetches, eval_tensor, run_op)
        finally:
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
        return result

    # ------------------------------------------------------------------

    def _account(
        self,
        op: Operation,
        input_values: List[Any],
        outputs: List[Any],
        stats: RunStats,
    ) -> None:
        out0 = outputs[0]
        flops = flops_of(op, input_values, out0)
        out_bytes = sum(
            v.nbytes for v in outputs if isinstance(v, np.ndarray)
        )
        in_bytes = sum(
            v.nbytes for v in input_values if isinstance(v, np.ndarray)
        )
        if op.op_type == "variable":
            stats.weight_bytes += out0.nbytes
            stats.ops += 1
        elif op.op_type == "const":
            # Frozen models carry their weights as constants; they are
            # persistent read-only data exactly like variables.
            if isinstance(out0, np.ndarray):
                stats.weight_bytes += out0.nbytes
            stats.ops += 1
        elif op.op_type in _STATE_OPS:
            stats.ops += 1
        else:
            stats.flops += flops
            stats.ops += 1
            stats.activation_bytes += out_bytes
            stats.max_op_bytes = max(stats.max_op_bytes, in_bytes + out_bytes)

    def _normalize_feed(
        self, feed_dict: Dict[Union[Tensor, str], Any]
    ) -> Dict[str, Any]:
        feed: Dict[str, Any] = {}
        for key, value in feed_dict.items():
            tensor = self.graph.get_tensor(key) if isinstance(key, str) else key
            array = np.asarray(value)
            if array.dtype == np.float64 and tensor.dtype == "float32":
                array = array.astype(np.float32)
            self._check_feed_shape(tensor, array)
            feed[tensor.name] = array
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

    def _eval_fetches(self, fetches: Any, eval_tensor, run_op) -> Any:
        if isinstance(fetches, (list, tuple)):
            return type(fetches)(
                self._eval_fetches(f, eval_tensor, run_op) for f in fetches
            )
        if isinstance(fetches, dict):
            return {
                k: self._eval_fetches(v, eval_tensor, run_op)
                for k, v in fetches.items()
            }
        if isinstance(fetches, str):
            fetches = self.graph.get_tensor(fetches)
        if isinstance(fetches, Operation):
            run_op(fetches)
            return None
        if isinstance(fetches, Tensor):
            return eval_tensor(fetches)
        raise GraphError(f"cannot fetch object of type {type(fetches).__name__}")

    # ------------------------------------------------------------------

    def __enter__(self) -> "ReferenceSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass
