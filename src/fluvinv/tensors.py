"""Dense tensors with taped reverse-mode gradients.

A small eager engine: every operation computes its result with numpy and
appends a record to a :class:`GraphTape`; ``GraphTape.backward`` replays the
records in reverse order to accumulate exact gradients for all inputs.

Storage is float32 by default with a float64 mode for verification runs.
Contractions and reductions always accumulate in float64 with a fixed
(sequential) order, so repeated evaluations are bit-identical.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "GraphTape",
    "Node",
    "Gradients",
    "TensorError",
    "ShapeError",
    "TapeError",
    "add", "sub", "mul", "div", "neg", "absolute", "exp", "log", "sqrt",
    "square", "power", "sin", "tanh", "sigmoid", "leaky_relu", "clamp",
    "affine", "dense", "conv3d", "upsample2",
    "crop", "pad_zero", "concat", "reshape", "take",
    "sum_all", "mean_all", "gradient_check",
]

_ACC = np.float64  # accumulation dtype for reductions/contractions


class TensorError(Exception):
    """Base error for the tensor engine."""


class ShapeError(TensorError):
    """Operand shapes are incompatible for the requested operation."""


class TapeError(TensorError):
    """Tape used outside its forward-then-one-backward life cycle."""


class Node:
    """A value on a tape. Immutable after construction."""

    __slots__ = ("tape", "idx", "value", "requires_grad")

    def __init__(self, tape, idx, value, requires_grad):
        self.tape = tape
        self.idx = idx
        self.value = value
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(idx={self.idx}, shape={self.value.shape}, grad={self.requires_grad})"

    # arithmetic sugar; scalars and arrays are promoted to constants
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_coerce(self.tape, other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_coerce(self.tape, other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        return power(self, p)


class Gradients:
    """Result of a backward pass; zero arrays for unused inputs."""

    def __init__(self, grads, tape):
        self._grads = grads
        self._tape = tape

    def wrt(self, node):
        if node.tape is not self._tape:
            raise TapeError("gradient requested for a node from another tape")
        g = self._grads[node.idx]
        if g is None:
            return np.zeros_like(node.value)
        return g


class GraphTape:
    """Ordered record of executed primitive operations.

    Operations run eagerly; each appends what the backward pass needs.
    One backward per forward: the tape is consumed afterwards.
    """

    def __init__(self, dtype=np.float32):
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise TensorError(f"unsupported storage dtype {dtype}")
        self.dtype = dtype
        self._records = []
        self._n_nodes = 0
        self._consumed = False

    # -- node constructors -------------------------------------------------
    def input(self, value, name=None):
        """Leaf that participates in gradients."""
        return self._new_node(self._as_array(value), True)

    def constant(self, value):
        """Leaf excluded from gradients."""
        return self._new_node(self._as_array(value), False)

    def _as_array(self, value):
        return np.asarray(value, dtype=self.dtype)

    def _new_node(self, value, requires_grad):
        if self._consumed:
            raise TapeError("tape already consumed; build a new tape")
        node = Node(self, self._n_nodes, value, requires_grad)
        self._n_nodes += 1
        return node

    def _record(self, out, inputs, backward):
        self._records.append(
            (out.idx,
             tuple(i.idx for i in inputs),
             tuple(i.requires_grad for i in inputs),
             backward)
        )

    # -- reverse pass ------------------------------------------------------
    def backward(self, output, seed=None):
        """Accumulate gradients of ``output`` w.r.t. every input node.

        ``seed`` defaults to 1 for scalars / all-ones for tensors. Consumes
        the tape.
        """
        if self._consumed:
            raise TapeError("double backward: tape already consumed")
        if not self._records:
            raise TapeError("backward before forward: no operations recorded")
        if output.tape is not self:
            raise TapeError("output node belongs to another tape")
        if seed is None:
            seed = np.ones_like(output.value)
        else:
            seed = np.asarray(seed, dtype=self.dtype)
            if seed.shape != output.value.shape:
                raise ShapeError(
                    f"seed gradient shape {seed.shape} != output shape {output.value.shape}")
        self._consumed = True
        grads = [None] * self._n_nodes
        grads[output.idx] = seed
        for out_idx, in_idxs, in_reqs, backward in reversed(self._records):
            g = grads[out_idx]
            if g is None:
                continue
            parts = backward(g)
            for idx, req, part in zip(in_idxs, in_reqs, parts):
                if not req or part is None:
                    continue
                part = np.asarray(part, dtype=self.dtype)
                if grads[idx] is None:
                    grads[idx] = part
                else:
                    grads[idx] = grads[idx] + part
        return Gradients(grads, self)


# ---------------------------------------------------------------------------
# helpers

def _coerce(tape, x):
    if isinstance(x, Node):
        if x.tape is not tape:
            raise TapeError("operands live on different tapes")
        return x
    return tape.constant(x)


def _tape_of(*args):
    for a in args:
        if isinstance(a, Node):
            return a.tape
    raise TensorError("at least one operand must be a Node")


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (reverses numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)), dtype=_ACC)
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True, dtype=_ACC)
    return grad.reshape(shape)


def _binary(name, a, b, forward, back_a, back_b):
    tape = _tape_of(a, b)
    a = _coerce(tape, a)
    b = _coerce(tape, b)
    try:
        value = forward(a.value, b.value)
    except ValueError:
        raise ShapeError(f"{name}: incompatible shapes {a.shape} and {b.shape}") from None
    value = np.asarray(value, dtype=tape.dtype)
    out = tape._new_node(value, a.requires_grad or b.requires_grad)
    if out.requires_grad:
        av, bv, ov = a.value, b.value, value

        def backward(g):
            ga = _unbroadcast(back_a(g, av, bv, ov), av.shape) if a.requires_grad else None
            gb = _unbroadcast(back_b(g, av, bv, ov), bv.shape) if b.requires_grad else None
            return (ga, gb)

        tape._record(out, (a, b), backward)
    return out


def _unary(name, x, forward, back):
    tape = _tape_of(x)
    value = np.asarray(forward(x.value), dtype=tape.dtype)
    out = tape._new_node(value, x.requires_grad)
    if out.requires_grad:
        xv, ov = x.value, value

        def backward(g):
            return (back(g, xv, ov),)

        tape._record(out, (x,), backward)
    return out


# ---------------------------------------------------------------------------
# elementwise primitives (broadcasting, gradients reduced back to operands)

def add(a, b):
    return _binary("add", a, b, lambda x, y: x + y,
                   lambda g, x, y, o: g, lambda g, x, y, o: g)


def sub(a, b):
    return _binary("sub", a, b, lambda x, y: x - y,
                   lambda g, x, y, o: g, lambda g, x, y, o: -g)


def mul(a, b):
    return _binary("mul", a, b, lambda x, y: x * y,
                   lambda g, x, y, o: g * y, lambda g, x, y, o: g * x)


def div(a, b):
    return _binary("div", a, b, lambda x, y: x / y,
                   lambda g, x, y, o: g / y,
                   lambda g, x, y, o: -g * x / (y * y))


def neg(x):
    return _unary("neg", x, lambda v: -v, lambda g, v, o: -g)


def absolute(x):
    return _unary("abs", x, np.abs, lambda g, v, o: g * np.sign(v))


def exp(x):
    return _unary("exp", x, np.exp, lambda g, v, o: g * o)


def log(x):
    return _unary("log", x, np.log, lambda g, v, o: g / v)


def sqrt(x):
    return _unary("sqrt", x, np.sqrt, lambda g, v, o: g * 0.5 / o)


def square(x):
    return _unary("square", x, np.square, lambda g, v, o: g * 2.0 * v)


def power(x, p):
    p = float(p)
    return _unary("power", x, lambda v: np.power(v, p),
                  lambda g, v, o: g * p * np.power(v, p - 1.0))


def sin(x):
    return _unary("sin", x, np.sin, lambda g, v, o: g * np.cos(v))


def tanh(x):
    return _unary("tanh", x, np.tanh, lambda g, v, o: g * (1.0 - o * o))


def _stable_sigmoid(v):
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def sigmoid(x):
    return _unary("sigmoid", x, _stable_sigmoid, lambda g, v, o: g * o * (1.0 - o))


def leaky_relu(x, slope=0.2):
    slope = float(slope)
    return _unary("leaky_relu", x,
                  lambda v: np.where(v > 0, v, slope * v),
                  lambda g, v, o: g * np.where(v > 0, 1.0, slope))


def clamp(x, lo, hi):
    lo, hi = float(lo), float(hi)
    return _unary("clamp", x,
                  lambda v: np.clip(v, lo, hi),
                  lambda g, v, o: g * ((v > lo) & (v < hi)))


def affine(x, scale, offset):
    """scale * x + offset with float coefficients."""
    scale, offset = float(scale), float(offset)
    return _unary("affine", x, lambda v: scale * v + offset,
                  lambda g, v, o: g * scale)


# ---------------------------------------------------------------------------
# structural primitives

def crop(x, slices):
    """Slice with unit-step slices along every axis."""
    tape = _tape_of(x)
    slices = tuple(slices)
    if len(slices) != x.value.ndim:
        raise ShapeError(f"crop: {len(slices)} slices for a rank-{x.value.ndim} tensor")
    for s in slices:
        if s.step not in (None, 1):
            raise TensorError("crop: only unit-step slices are supported")
    value = np.ascontiguousarray(x.value[slices])
    out = tape._new_node(value, x.requires_grad)
    if out.requires_grad:
        in_shape = x.value.shape

        def backward(g):
            buf = np.zeros(in_shape, dtype=g.dtype)
            buf[slices] = g
            return (buf,)

        tape._record(out, (x,), backward)
    return out


def pad_zero(x, pad_width):
    """Zero padding; ``pad_width`` as in numpy.pad."""
    tape = _tape_of(x)
    pad_width = tuple((int(a), int(b)) for a, b in pad_width)
    value = np.pad(x.value, pad_width)
    out = tape._new_node(value, x.requires_grad)
    if out.requires_grad:
        slices = tuple(slice(a, a + n) for (a, _), n in zip(pad_width, x.value.shape))

        def backward(g):
            return (np.ascontiguousarray(g[slices]),)

        tape._record(out, (x,), backward)
    return out


def concat(nodes, axis=0):
    nodes = list(nodes)
    tape = _tape_of(*nodes)
    nodes = [_coerce(tape, n) for n in nodes]
    try:
        value = np.concatenate([n.value for n in nodes], axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat: incompatible shapes {[n.shape for n in nodes]} along axis {axis}") from None
    out = tape._new_node(value, any(n.requires_grad for n in nodes))
    if out.requires_grad:
        sizes = [n.value.shape[axis] for n in nodes]
        offsets = np.cumsum([0] + sizes)

        def backward(g):
            parts = []
            for i in range(len(sizes)):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offsets[i], offsets[i + 1])
                parts.append(np.ascontiguousarray(g[tuple(sl)]))
            return tuple(parts)

        tape._record(out, tuple(nodes), backward)
    return out


def reshape(x, shape):
    tape = _tape_of(x)
    try:
        value = x.value.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot reshape {x.shape} to {shape}") from None
    out = tape._new_node(value, x.requires_grad)
    if out.requires_grad:
        in_shape = x.value.shape

        def backward(g):
            return (g.reshape(in_shape),)

        tape._record(out, (x,), backward)
    return out


def take(x, indices):
    """Gather from the flattened tensor; gradient scatter-adds."""
    tape = _tape_of(x)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.value.size):
        raise TensorError("take: index out of range")
    value = x.value.reshape(-1)[idx]
    out = tape._new_node(value, x.requires_grad)
    if out.requires_grad:
        in_shape = x.value.shape

        def backward(g):
            buf = np.zeros(x.value.size, dtype=_ACC)
            np.add.at(buf, idx.ravel(), np.asarray(g, dtype=_ACC).ravel())
            return (buf.reshape(in_shape),)

        tape._record(out, (x,), backward)
    return out


# ---------------------------------------------------------------------------
# reductions (float64 accumulation, fixed order)

def sum_all(x):
    tape = _tape_of(x)
    value = np.asarray(x.value.sum(dtype=_ACC), dtype=tape.dtype)
    out = tape._new_node(value, x.requires_grad)
    if out.requires_grad:
        shape = x.value.shape

        def backward(g):
            return (np.broadcast_to(g, shape),)

        tape._record(out, (x,), backward)
    return out


def mean_all(x):
    tape = _tape_of(x)
    n = x.value.size
    value = np.asarray(x.value.sum(dtype=_ACC) / n, dtype=tape.dtype)
    out = tape._new_node(value, x.requires_grad)
    if out.requires_grad:
        shape = x.value.shape

        def backward(g):
            return (np.broadcast_to(g / n, shape),)

        tape._record(out, (x,), backward)
    return out


# ---------------------------------------------------------------------------
# dense / convolution / resampling

def dense(w, x, bias=None):
    """Matrix-vector product: w @ x + bias. w: (m, n), x: (n,)."""
    tape = _tape_of(w, x)
    w = _coerce(tape, w)
    x = _coerce(tape, x)
    if w.value.ndim != 2 or x.value.ndim != 1 or w.value.shape[1] != x.value.shape[0]:
        raise ShapeError(f"dense: weight {w.shape} incompatible with input {x.shape}")
    inputs = [w, x]
    value = np.einsum("mn,n->m", w.value, x.value, dtype=_ACC)
    if bias is not None:
        bias = _coerce(tape, bias)
        if bias.value.shape != (w.value.shape[0],):
            raise ShapeError(f"dense: bias {bias.shape} incompatible with weight {w.shape}")
        value = value + bias.value
        inputs.append(bias)
    value = np.asarray(value, dtype=tape.dtype)
    out = tape._new_node(value, any(n.requires_grad for n in inputs))
    if out.requires_grad:
        wv, xv = w.value, x.value

        def backward(g):
            gw = np.outer(g, xv) if w.requires_grad else None
            gx = np.einsum("mn,m->n", wv, g, dtype=_ACC) if x.requires_grad else None
            parts = [gw, gx]
            if bias is not None:
                parts.append(g if bias.requires_grad else None)
            return tuple(parts)

        tape._record(out, tuple(inputs), backward)
    return out


def _along_axis(v, m, axis):
    # m @ v along one axis of v, as one (batched) float64 matmul
    shape = v.shape
    v = np.asarray(v, dtype=_ACC)
    if axis == v.ndim - 1:
        out = v.reshape(-1, shape[axis]) @ m.T
    else:
        out = m @ v.reshape(int(np.prod(shape[:axis])), shape[axis], -1)
    return out.reshape(shape)


def _banded(taps, n):
    # (n, n) matrix of a "same" zero-padded correlation with odd taps along
    # an axis of length n, M[i, j] = taps[j - i + h]: taps that would reach
    # past either end meet only zero padding and are dropped
    h = taps.shape[0] // 2
    offset = np.arange(n)[None, :] - np.arange(n)[:, None] + h
    inside = (offset >= 0) & (offset < taps.shape[0])
    return np.where(inside, taps[np.clip(offset, 0, taps.shape[0] - 1)], 0.0)


def _conv_one_axis(tape, x, taps, axis):
    # conv3d of x with a constant kernel that extends along one axis only:
    # one banded matmul forward, its transpose backward
    m = _banded(np.asarray(taps, dtype=_ACC), x.value.shape[axis])
    value = np.asarray(_along_axis(x.value, m, axis), dtype=tape.dtype)
    out = tape._new_node(value, x.requires_grad)
    if out.requires_grad:
        mt = m.T

        def backward(g):
            return (_along_axis(g, mt, axis),)

        tape._record(out, (x,), backward)
    return out


def _windows(padded, kshape):
    # (C, oz, oy, ox, kz, ky, kx) view over a padded (C, Z, Y, X) array
    return sliding_window_view(padded, kshape, axis=(1, 2, 3))


def conv3d(x, w, bias=None):
    """3D cross-correlation, stride 1, "same" zero padding, odd kernels.

    x: (C, Z, Y, X); w: (O, C, kz, ky, kx); bias: (O,) optional. A constant
    single-channel kernel without bias that extends along one axis only is
    applied as a banded matrix along that axis; every other kernel slides a
    window.
    """
    tape = _tape_of(x, w)
    x = _coerce(tape, x)
    w = _coerce(tape, w)
    if x.value.ndim != 4 or w.value.ndim != 5:
        raise ShapeError(f"conv3d: expected rank-4 input and rank-5 kernel, "
                         f"got {x.shape} and {w.shape}")
    if w.value.shape[1] != x.value.shape[0]:
        raise ShapeError(f"conv3d: kernel channels {w.shape} do not match input {x.shape}")
    kshape = w.value.shape[2:]
    if any(k % 2 == 0 for k in kshape):
        raise ShapeError(f"conv3d: kernel extents must be odd, got {kshape}")
    long_axes = [a for a, k in enumerate(kshape) if k > 1]
    if (w.value.shape[:2] == (1, 1) and len(long_axes) == 1 and not w.requires_grad
            and bias is None):
        # a single-channel constant kernel along one axis (a separable PSF
        # factor): the sliding window would mostly multiply padding once the
        # kernel outgrows the axis, the banded matrix never does
        return _conv_one_axis(tape, x, w.value.reshape(-1), 1 + long_axes[0])
    pads = tuple(k // 2 for k in kshape)
    xp = np.pad(x.value, ((0, 0),) + tuple((p, p) for p in pads))
    win = _windows(xp, kshape)
    value = np.einsum("czyxijk,ocijk->ozyx", win, w.value, dtype=_ACC, optimize=True)
    inputs = [x, w]
    if bias is not None:
        bias = _coerce(tape, bias)
        if bias.value.shape != (w.value.shape[0],):
            raise ShapeError(f"conv3d: bias {bias.shape} incompatible with kernel {w.shape}")
        value = value + bias.value[:, None, None, None]
        inputs.append(bias)
    value = np.asarray(value, dtype=tape.dtype)
    out = tape._new_node(value, any(n.requires_grad for n in inputs))
    if out.requires_grad:
        wv = w.value

        def backward(g):
            gx = None
            if x.requires_grad:
                # correlate the output gradient with the flipped, channel-swapped kernel
                wt = wv[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
                gp = np.pad(g, ((0, 0),) + tuple((p, p) for p in pads))
                gx = np.einsum("ozyxijk,coijk->czyx", _windows(gp, kshape),
                               wt, dtype=_ACC, optimize=True)
            gw = None
            if w.requires_grad:
                gw = np.einsum("czyxijk,ozyx->ocijk", win, g, dtype=_ACC, optimize=True)
            parts = [gx, gw]
            if bias is not None:
                parts.append(g.sum(axis=(1, 2, 3), dtype=_ACC) if bias.requires_grad else None)
            return tuple(parts)

        tape._record(out, tuple(inputs), backward)
    return out


def upsample2(x):
    """Nearest-neighbor x2 upsampling along the three spatial axes."""
    tape = _tape_of(x)
    if x.value.ndim != 4:
        raise ShapeError(f"upsample2: expected rank-4 input, got {x.shape}")
    value = x.value.repeat(2, axis=1).repeat(2, axis=2).repeat(2, axis=3)
    out = tape._new_node(value, x.requires_grad)
    if out.requires_grad:
        c, z, y, xx = x.value.shape

        def backward(g):
            return (g.reshape(c, z, 2, y, 2, xx, 2).sum(axis=(2, 4, 6), dtype=_ACC),)

        tape._record(out, (x,), backward)
    return out


# ---------------------------------------------------------------------------
# verification

def gradient_check(fn, point, step=1e-5):
    """Max relative mismatch between taped and central-difference gradients.

    ``fn(tape, node) -> scalar node`` defines the function; it is evaluated
    in float64 regardless of the default storage mode. Returns
    max_i |analytic_i - numeric_i| / max(|analytic_i|, |numeric_i|, 1e-12).
    """
    if step <= 0:
        raise TensorError("gradient_check: step must be > 0")
    point = np.asarray(point, dtype=np.float64)

    tape = GraphTape(np.float64)
    x = tape.input(point)
    out = fn(tape, x)
    if out.value.shape != ():
        raise TensorError("gradient_check: function must return a scalar node")
    if not np.isfinite(out.value):
        raise TensorError("gradient_check: non-finite value at the evaluation point")
    analytic = tape.backward(out).wrt(x).ravel()

    def value_at(p):
        t = GraphTape(np.float64)
        return float(fn(t, t.input(p)).value)

    flat = point.ravel()
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        delta = np.zeros_like(flat)
        delta[i] = step
        hi = value_at((flat + delta).reshape(point.shape))
        lo = value_at((flat - delta).reshape(point.shape))
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise TensorError(f"gradient_check: non-finite function value at probe "
                              f"coordinate {i}")
        numeric[i] = (hi - lo) / (2.0 * step)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric) / denom))
