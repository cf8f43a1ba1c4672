"""Model zoo: stand-ins for the paper's benchmark models.

The paper classifies with pre-trained DenseNet (42 MB), Inception-v3
(91 MB), and Inception-v4 (163 MB) — §5.3 — and trains an MNIST network
(batch 100, lr 0.0005) — §5.4.  Offline we cannot ship those weights, so
each zoo entry is an architecturally-representative small network whose
*declared* footprint (bytes, FLOPs, op count) matches the real model;
the graph's cost scales make the execution engine charge for the real
thing while the numerics stay laptop-sized.
"""

from repro.models.zoo import (
    BuiltModel,
    ModelSpec,
    MODEL_ZOO,
    build_model,
    get_spec,
    pretrained_lite_model,
)
from repro.models.mnist_net import mnist_cnn
from repro.models.densenet import densenet_analogue
from repro.models.inception import inception_v3_analogue, inception_v4_analogue

__all__ = [
    "ModelSpec",
    "BuiltModel",
    "MODEL_ZOO",
    "build_model",
    "get_spec",
    "pretrained_lite_model",
    "mnist_cnn",
    "densenet_analogue",
    "inception_v3_analogue",
    "inception_v4_analogue",
]
