"""Small dense networks used by the flow conditioners and the inference net."""

from __future__ import annotations

import numpy as np

from .. import tensors as tc

__all__ = ["mlp_init", "mlp_apply", "mlp_sizes"]


def mlp_sizes(d_in, hidden, d_out):
    dims = [d_in, *hidden, d_out]
    return list(zip(dims[:-1], dims[1:]))


def mlp_init(d_in, hidden, d_out, rng, scale=1.0):
    """Xavier-style weights for a chain of dense layers; zero biases."""
    weights = {}
    for i, (a, b) in enumerate(mlp_sizes(d_in, hidden, d_out)):
        std = scale / np.sqrt(a)
        weights[f"fc{i}.w"] = (std * rng.standard_normal((b, a)))
        weights[f"fc{i}.b"] = np.zeros(b)
    return weights


def mlp_apply(tape, weights, x, n_layers, slope=0.2):
    """Dense chain with leaky activations between layers, linear output;
    ``x`` is one input (d,) or a batch of rows (B, d)."""
    h = x
    for i in range(n_layers):
        h = tc.dense(weights[f"fc{i}.w"], h, weights[f"fc{i}.b"])
        if i < n_layers - 1:
            h = tc.leaky_relu(h, slope)
    return h

