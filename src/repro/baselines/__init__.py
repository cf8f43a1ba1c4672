"""Baselines the paper compares against (Fig. 5).

- native glibc (Ubuntu) and native musl (Alpine) TensorFlow Lite,
- Graphene-SGX: a library OS inside the enclave — same protection goal
  as SCONE, much larger in-enclave footprint and costlier syscalls.
"""

from repro.baselines.native import make_native_runner, NativeRunner
from repro.baselines.graphene import GRAPHENE_LIBOS, make_graphene_runner

__all__ = [
    "NativeRunner",
    "make_native_runner",
    "GRAPHENE_LIBOS",
    "make_graphene_runner",
]
