"""The inverse of ``PlatformMetrics.to_json``, for the round-trip tests.

A snapshot rebuilt from its JSON tree equals the original only if
``to_json`` drops nothing: the node list, every metric group and every
field of a group a subclass adds.
"""

import dataclasses

from repro.core.monitoring import NodeMetrics


def from_json(cls, data):
    """Rebuild a ``PlatformMetrics`` (or subclass) from its JSON tree."""
    payload = dict(data)
    payload["nodes"] = [NodeMetrics(**node) for node in payload["nodes"]]
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.default_factory):  # a group
            payload[f.name] = f.default_factory(**payload[f.name])
    return cls(**payload)
