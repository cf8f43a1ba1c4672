"""The differential between ``Session`` (compiled plans) and
``ReferenceSession`` (the recursive evaluator it replaced).

Kernels are stateful (dropout draws, assigns), so the two never share a
graph: :class:`Differential` builds the same graph twice and holds both
sides to bitwise-equal fetches, the same kernel call order, equal
``last_stats`` and an equal ``RunStats`` handed to the engine — run
after run, including runs that raise.  Not collected by pytest.
"""

from dataclasses import replace

import numpy as np

from repro.tensor.session import Session

from tests.tensor._reference_session import ReferenceSession


class RecordingEngine:
    """Stands in for ``ExecutionEngine``: keeps what it was charged."""

    def __init__(self):
        self.charged = []

    def charge_run(self, stats, threads=None):
        self.charged.append((replace(stats), threads))


def log_kernels(graph, log):
    """Make every kernel of ``graph`` append its op's name to ``log``
    when called (ops added since the last call included)."""
    for op in graph.operations:
        inner = op._compute
        if getattr(inner, "logs_to", None) is log:
            continue

        def logged(op, *args, _inner=inner, **kwargs):
            log.append(op.name)
            return _inner(op, *args, **kwargs)

        logged.logs_to = log
        op._compute = logged


def assert_bitwise_equal(actual, expected):
    """Same structure, same types, same bytes (so -0.0 != 0.0 and NaNs
    compare by payload)."""
    assert type(actual) is type(expected), (type(actual), type(expected))
    if isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected)
        for a, e in zip(actual, expected):
            assert_bitwise_equal(a, e)
    elif isinstance(expected, dict):
        assert list(actual) == list(expected)
        for key in expected:
            assert_bitwise_equal(actual[key], expected[key])
    elif isinstance(expected, (np.ndarray, np.generic)):
        assert actual.dtype == expected.dtype and actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes()
    else:
        assert actual == expected


class _Side:
    def __init__(self, model, session_cls):
        self.model = model
        self.engine = RecordingEngine()
        self.session = session_cls(graph=model.graph, engine=self.engine, threads=2)
        self.log = []

    def run(self, fetches, feed):
        log_kernels(self.model.graph, self.log)
        del self.log[:]
        try:
            value, error = self.session.run(fetches(self.model), feed(self.model)), None
        except Exception as exc:  # compared with the other side's, then re-raised
            value, error = None, exc
        return value, error, list(self.log), self.session.last_stats, self.engine.charged[-1:]


class Differential:
    """``build()`` twice (anything with a ``.graph``): once under
    ``Session``, once under ``ReferenceSession``."""

    def __init__(self, build):
        self.plan = _Side(build(), Session)
        self.reference = _Side(build(), ReferenceSession)

    @property
    def models(self):
        """Both graphs' handles, for mutating the two alike."""
        return (self.plan.model, self.reference.model)

    def run(self, fetches, feed=lambda model: None):
        """Run ``fetches(model)`` fed ``feed(model)`` on both sides and
        hold them equal; returns ``(value, stats)`` of the plan side, or
        raises what both sides raised."""
        value, error, log, stats, charged = self.plan.run(fetches, feed)
        ref_value, ref_error, ref_log, ref_stats, ref_charged = self.reference.run(
            fetches, feed
        )
        assert log == ref_log
        assert stats == ref_stats
        assert charged == ref_charged and len(charged) == 1
        if ref_error is not None or error is not None:
            assert type(error) is type(ref_error) and str(error) == str(ref_error)
            raise error
        assert_bitwise_equal(value, ref_value)
        return value, stats
