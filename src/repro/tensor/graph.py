"""Dataflow graph core: Graph, Operation, Tensor.

TF-1.x architecture: a :class:`Graph` is a DAG of :class:`Operation`
nodes; each operation produces :class:`Tensor` handles consumed by
downstream operations.  Shapes are inferred at construction (``None``
dims are unknown, typically the batch dimension).  Execution lives in
:mod:`repro.tensor.session`; op semantics in :mod:`repro.tensor.ops`.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import GraphError

Shape = Tuple[Optional[int], ...]


class Graph:
    """A dataflow graph under construction or execution."""

    def __init__(self) -> None:
        self._operations: List["Operation"] = []
        self._by_name: Dict[str, "Operation"] = {}
        self._name_counts: Dict[str, int] = {}
        self.collections: Dict[str, List[Any]] = {}
        #: Bumped whenever the graph's structure changes (an op is
        #: registered, a control edge is added); a ``Session`` drops its
        #: compiled plans when it sees a new value.
        self.version: int = 0
        #: Cost multipliers applied by the execution engine; the model zoo
        #: uses them to give small stand-in graphs the declared footprint
        #: of the paper's full-size models (see DESIGN.md).
        #: ``cost_scale`` scales FLOPs and activation traffic,
        #: ``weight_scale`` scales weight bytes, ``op_scale`` scales the
        #: executed-op count (dispatch overhead + hot-code traffic).
        self.cost_scale: float = 1.0
        self.weight_scale: float = 1.0
        self.op_scale: float = 1.0
        self.activation_scale: float = 1.0

    @property
    def operations(self) -> List["Operation"]:
        return list(self._operations)

    def unique_name(self, base: str) -> str:
        count = self._name_counts.get(base, 0)
        self._name_counts[base] = count + 1
        return base if count == 0 else f"{base}_{count}"

    def register(self, op: "Operation") -> None:
        if op.name in self._by_name:
            raise GraphError(f"duplicate operation name {op.name!r}")
        self._operations.append(op)
        self._by_name[op.name] = op
        self.version += 1

    def get_operation(self, name: str) -> "Operation":
        if name not in self._by_name:
            raise GraphError(f"no operation named {name!r} in graph")
        return self._by_name[name]

    def get_tensor(self, name: str) -> "Tensor":
        """Look up a tensor by ``op_name`` or ``op_name:index``."""
        if ":" in name:
            op_name, _, index_str = name.partition(":")
            index = int(index_str)
        else:
            op_name, index = name, 0
        op = self.get_operation(op_name)
        if index >= len(op.outputs):
            raise GraphError(
                f"operation {op_name!r} has {len(op.outputs)} outputs, "
                f"index {index} requested"
            )
        return op.outputs[index]

    def add_to_collection(self, key: str, value: Any) -> None:
        self.collections.setdefault(key, []).append(value)

    def get_collection(self, key: str) -> List[Any]:
        return list(self.collections.get(key, []))

    def as_default(self) -> "_DefaultGraphContext":
        return _DefaultGraphContext(self)

    def __repr__(self) -> str:
        return f"Graph({len(self._operations)} ops)"


class Operation:
    """A node: an op type applied to input tensors, yielding outputs."""

    def __init__(
        self,
        graph: Graph,
        op_type: str,
        name: str,
        inputs: Sequence["Tensor"],
        attrs: Dict[str, Any],
        output_shapes: Sequence[Shape],
        output_dtypes: Sequence[str],
        compute: Callable[..., Any],
        control_inputs: Optional[Sequence["Operation"]] = None,
    ) -> None:
        self.graph = graph
        self.op_type = op_type
        self.name = graph.unique_name(name)
        self.inputs: List[Tensor] = list(inputs)
        self.attrs = dict(attrs)
        self.control_inputs: List[Operation] = list(control_inputs or [])
        self._compute = compute
        self.outputs: List[Tensor] = [
            Tensor(self, i, shape, dtype)
            for i, (shape, dtype) in enumerate(zip(output_shapes, output_dtypes))
        ]
        graph.register(self)

    def compute(self, *input_values: Any) -> Any:
        """Run the op's numpy kernel on concrete input values."""
        return self._compute(self, *input_values)

    @property
    def output(self) -> "Tensor":
        if len(self.outputs) != 1:
            raise GraphError(
                f"operation {self.name!r} has {len(self.outputs)} outputs"
            )
        return self.outputs[0]

    def add_control_input(self, op: "Operation") -> None:
        self.control_inputs.append(op)
        self.graph.version += 1

    def __repr__(self) -> str:
        return f"Operation(name={self.name!r}, type={self.op_type!r})"


class Tensor:
    """A symbolic handle to one output of an operation."""

    def __init__(self, op: Operation, index: int, shape: Shape, dtype: str) -> None:
        self.op = op
        self.index = index
        self.shape: Shape = tuple(shape)
        self.dtype = dtype
        self.name = f"{op.name}:{index}"

    @property
    def graph(self) -> Graph:
        return self.op.graph

    @property
    def rank(self) -> int:
        return len(self.shape)

    def __repr__(self) -> str:
        return f"Tensor({self.name!r}, shape={self.shape}, dtype={self.dtype})"

    # Operator sugar (built lazily to avoid import cycles).

    def __add__(self, other: Any) -> "Tensor":
        from repro.tensor import ops

        return ops.add(self, ops.as_tensor(other, graph=self.graph))

    def __radd__(self, other: Any) -> "Tensor":
        from repro.tensor import ops

        return ops.add(ops.as_tensor(other, graph=self.graph), self)

    def __sub__(self, other: Any) -> "Tensor":
        from repro.tensor import ops

        return ops.sub(self, ops.as_tensor(other, graph=self.graph))

    def __rsub__(self, other: Any) -> "Tensor":
        from repro.tensor import ops

        return ops.sub(ops.as_tensor(other, graph=self.graph), self)

    def __mul__(self, other: Any) -> "Tensor":
        from repro.tensor import ops

        return ops.mul(self, ops.as_tensor(other, graph=self.graph))

    def __rmul__(self, other: Any) -> "Tensor":
        from repro.tensor import ops

        return ops.mul(ops.as_tensor(other, graph=self.graph), self)

    def __truediv__(self, other: Any) -> "Tensor":
        from repro.tensor import ops

        return ops.div(self, ops.as_tensor(other, graph=self.graph))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        from repro.tensor import ops

        return ops.matmul(self, other)

    def __neg__(self) -> "Tensor":
        from repro.tensor import ops

        return ops.neg(self)


class _GraphStack(threading.local):
    def __init__(self) -> None:
        self.stack: List[Graph] = [Graph()]


_STACK = _GraphStack()


class _DefaultGraphContext:
    def __init__(self, graph: Graph) -> None:
        self._graph = graph

    def __enter__(self) -> Graph:
        _STACK.stack.append(self._graph)
        return self._graph

    def __exit__(self, *exc_info: object) -> None:
        _STACK.stack.pop()


def get_default_graph() -> Graph:
    """The innermost graph opened with ``as_default`` (or the root one)."""
    return _STACK.stack[-1]


def reset_default_graph() -> Graph:
    """Replace the root default graph (test isolation)."""
    _STACK.stack[:] = [Graph()]
    return _STACK.stack[0]
