"""Small dense networks used by the flow conditioners and the inference net.

The dense chain is one numpy kernel, :func:`_mlp`, with a hand-derived
backward. :func:`mlp_apply` records it as one ``tc.custom``; the coupling
flow calls it inside its own kernel. Its values and gradients are those of
the chain of ``tc.dense`` and ``tc.leaky_relu`` records, op for op.
"""

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


def _mlp(x, params, slope=0.2, need_x=True):
    """The dense chain on arrays: ``params`` is [w0, b0, w1, b1, ...], every
    array in the storage dtype of ``x``, one input (d,) or a batch (B, d).

    Returns ``(out, vjp)``. Each op computes what its tape record would: a
    float64 einsum plus the bias, or the leaky activation, cast to the
    storage dtype. ``vjp(g)`` returns the gradients of x (None without
    ``need_x``) and of each entry of ``params``, in that order, cast after
    each op as the tape casts them."""
    dt = x.dtype
    xs, ys = ("bn", "bm") if x.ndim == 2 else ("n", "m")  # einsum subscripts
    n_layers = len(params) // 2
    ins, pre = [], []  # each layer's input, and the activations' inputs
    h = x
    for i in range(n_layers):
        w, b = params[2 * i], params[2 * i + 1]
        ins.append(h)
        h = np.asarray(np.einsum(f"mn,{xs}->{ys}", w, h, dtype=np.float64) + b, dtype=dt)
        if i < n_layers - 1:
            pre.append(h)
            h = np.where(h > 0, h, slope * h)

    def vjp(g):
        grads = [None] * len(params)
        for i in reversed(range(n_layers)):
            if i < n_layers - 1:
                g = np.asarray(g * np.where(pre[i] > 0, 1.0, slope), dtype=dt)
            grads[2 * i] = np.asarray(np.einsum(f"{ys},{xs}->mn", g, ins[i], dtype=np.float64),
                                      dtype=dt)
            grads[2 * i + 1] = np.asarray(tc._unbroadcast(g, params[2 * i + 1].shape), dtype=dt)
            if i or need_x:
                g = np.asarray(np.einsum(f"mn,{ys}->{xs}", params[2 * i], g, dtype=np.float64),
                               dtype=dt)
        return (g if need_x else None, *grads)

    return h, vjp


def mlp_apply(tape, weights, x, n_layers, slope=0.2):
    """Dense chain with leaky activations between layers, linear output;
    ``x`` is one input (d,) or a batch of rows (B, d). One tape record over
    x and the weights."""
    slope, need_x = float(slope), x.requires_grad
    return tc.custom(lambda xv, *params: _mlp(xv, params, slope, need_x),
                     x, *(weights[f"fc{i}.{p}"] for i in range(n_layers) for p in "wb"))
