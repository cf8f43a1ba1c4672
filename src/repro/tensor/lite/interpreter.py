"""The Lite interpreter: forward-only model execution.

API mirrors TensorFlow Lite: load a model, ``allocate_tensors()``, set
inputs, ``invoke()``, read outputs.  Execution reuses the real numpy
kernels through an internal :class:`Session`, but charges the simulated
clock with :data:`~repro.tensor.engine.LITE_PROFILE` — the small-binary,
low-dispatch-overhead interpreter the paper deploys in enclaves.

Like the interpreter it mirrors, this one plans ahead of time:
``allocate_tensors()`` has the session compile the plan that computes
the declared outputs from the declared inputs, so a model whose outputs
need a placeholder it does not declare fails at load, not at the first
request, and every ``invoke`` is one pass over the plan's flat step list
(the session keeps the run's work accounting and the convolution scratch
with the plan; see :mod:`repro.tensor.session`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.errors import GraphError, LiteConversionError
from repro.runtime.scone import SconeRuntime
from repro.tensor.engine import ExecutionEngine, LITE_PROFILE
from repro.tensor.lite.schema import LiteModel
from repro.tensor.saver import import_graph
from repro.tensor.session import Session


class Interpreter:
    """Loads and runs one Lite model."""

    def __init__(
        self,
        model: Union[LiteModel, bytes],
        runtime: Optional[SconeRuntime] = None,
        threads: int = 1,
    ) -> None:
        self.model = (
            model if isinstance(model, LiteModel) else LiteModel.from_bytes(model)
        )
        self._runtime = runtime
        self._threads = threads
        self._session: Optional[Session] = None
        self._imported = None

    def allocate_tensors(self) -> None:
        """Import the graph, build the execution session and compile
        its plan for the declared outputs."""
        imported = import_graph(self.model.graph_blob)
        if not imported.inputs:
            raise LiteConversionError(
                "Lite model declares no inputs; re-convert with input tensors"
            )
        engine = None
        if self._runtime is not None:
            engine = ExecutionEngine(self._runtime, LITE_PROFILE, threads=self._threads)
            engine.arena_hint = self.model.arena_size
        session = Session(graph=imported.graph, engine=engine, threads=self._threads)
        try:
            session.prepare(list(imported.outputs), imported.inputs)
        except GraphError as exc:
            raise LiteConversionError(
                f"Lite model cannot run from its declared inputs: {exc}"
            ) from exc
        self._imported = imported
        self._session = session

    @property
    def engine(self) -> Optional[ExecutionEngine]:
        """The attached execution engine (None when cost-free)."""
        self._check_allocated()
        return self._session.engine

    def invoke(self, inputs: Union[np.ndarray, List[Any], Dict[str, Any]]) -> List[np.ndarray]:
        """Run one forward pass; returns the output arrays in order."""
        self._check_allocated()
        feed: Dict[Any, Any] = {}
        declared = self._imported.inputs
        if isinstance(inputs, dict):
            for name, value in inputs.items():
                feed[self._imported.graph.get_tensor(name)] = value
        elif isinstance(inputs, (list, tuple)):
            if len(inputs) != len(declared):
                raise LiteConversionError(
                    f"model expects {len(declared)} inputs, got {len(inputs)}"
                )
            for tensor, value in zip(declared, inputs):
                feed[tensor] = value
        else:
            if len(declared) != 1:
                raise LiteConversionError(
                    f"model expects {len(declared)} inputs; pass a list or dict"
                )
            feed[declared[0]] = inputs
        outputs = self._session.run(list(self._imported.outputs), feed_dict=feed)
        return [np.asarray(value) for value in outputs]

    def classify(self, inputs: Any) -> int:
        """Convenience: argmax of the first output (label_image-style)."""
        outputs = self.invoke(inputs)
        first = outputs[0]
        return int(np.argmax(first[0] if first.ndim > 1 else first))

    def _check_allocated(self) -> None:
        if self._session is None or self._imported is None:
            raise LiteConversionError(
                "call allocate_tensors() before using the interpreter"
            )
