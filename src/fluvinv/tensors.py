"""Dense tensors with taped reverse-mode gradients.

A small eager engine: every operation computes its result with numpy and
enters the :class:`GraphTape` through one method, ``GraphTape._op``, which
makes the output node and, when some input takes a gradient, appends the
op's record; :func:`custom` is its public form, for a function with a
hand-derived backward. ``GraphTape.backward`` replays the records in
reverse order to accumulate exact gradients for all inputs.

Storage is float32 by default with a float64 mode for verification runs.
Contractions and reductions always accumulate in float64 with a fixed
(sequential) order, so repeated evaluations are bit-identical.
"""

from __future__ import annotations

import collections
import functools
import math

import numpy as np

__all__ = [
    "GraphTape",
    "Node",
    "Gradients",
    "TensorError",
    "ShapeError",
    "TapeError",
    "add", "sub", "mul", "div", "neg", "absolute", "exp", "log", "sqrt",
    "square", "power", "sin", "tanh", "sigmoid", "leaky_relu", "clamp",
    "affine", "custom", "dense", "matmul_axis", "conv3d", "conv3d_at", "cell_plan",
    "upconv3d", "upsample2",
    "crop", "concat", "stack", "reshape", "take",
    "sum_all", "sum_axis", "mean_all", "mean_rows",
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
    """Result of a backward pass: gradients of the leaf nodes (inputs and
    constants), zero arrays for unused inputs. Gradients of op outputs are
    freed during the pass and cannot be requested."""

    def __init__(self, grads, tape):
        self._grads = grads
        self._tape = tape

    def wrt(self, node):
        if node.tape is not self._tape:
            raise TapeError("gradient requested for a node from another tape")
        g = self._grads[node.idx]
        if g is None:
            if any(rec[0] == node.idx for rec in self._tape._records):
                raise TapeError("gradient requested for an op output; only the "
                                "gradients of tape inputs and constants are kept")
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
    def input(self, value):
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

    def _op(self, value, inputs, backward):
        """The output node of an op over ``inputs`` (nodes of this tape):
        ``value`` cast to the storage dtype. If some input takes a gradient,
        the op's record is appended; else no record is built at all.

        ``backward(g)`` gives a gradient or None per input, in order; parts
        past the last input are ignored. The record keeps the input indices
        and ``requires_grad`` flags, never the nodes, so ``backward`` must
        capture arrays and flags only: a closure over a node would make the
        tape a reference cycle.
        """
        value = np.asarray(value, dtype=self.dtype)
        for n in inputs:  # a loop, cheaper than any() over a generator
            if n.requires_grad:
                break
        else:
            return self._new_node(value, False)
        out = self._new_node(value, True)
        self._records.append((out.idx, tuple(n.idx for n in inputs),
                              tuple(n.requires_grad for n in inputs), backward))
        return out

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
            # every contribution to an op output's gradient comes from a later
            # record, so it is complete here and is freed once propagated:
            # a pass holds the gradients of its frontier, not of the whole tape
            g, grads[out_idx] = grads[out_idx], None
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
    """Sum ``grad`` down to ``shape`` (reverses numpy broadcasting); a
    gradient already of that shape is returned as it is, not copied."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)), dtype=_ACC)
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True, dtype=_ACC)
    return grad.reshape(shape)


def _stable_sigmoid(v, out=None):
    # exp never overflows: 1/(1+e^-v) for v >= 0, e^v/(1+e^v) below. The
    # result goes to ``out`` (an array of v's shape and dtype, v itself
    # allowed; a new one if None) through one temporary array
    if out is None:
        out = np.empty_like(v)
    below = v < 0
    e = np.abs(v, out=np.empty_like(out))
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.add(e, 1.0, out=out)
    np.divide(e, out, out=e)
    np.divide(1.0, out, out=out)
    np.copyto(out, e, where=below)
    return out


# The elementwise ops without parameters, made once, not on every call:
# binary (forward, gradient rule per operand, whether the rules read the
# operands) with rules (g, x, y); unary (forward, rule, the values it reads)
# with rules (g, v, o), v the operand and o the output.
_BINARY = {
    "add": (np.add, lambda g, x, y: g, lambda g, x, y: g, False),
    "sub": (np.subtract, lambda g, x, y: g, lambda g, x, y: -g, False),
    "mul": (np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x, True),
    "div": (np.divide, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y), True),
}
_UNARY = {
    "neg": (np.negative, lambda g, v, o: -g, ""),
    "abs": (np.abs, lambda g, v, o: g * np.sign(v), "v"),
    "exp": (np.exp, lambda g, v, o: g * o, "o"),
    "log": (np.log, lambda g, v, o: g / v, "v"),
    "sqrt": (np.sqrt, lambda g, v, o: g * 0.5 / o, "o"),
    "square": (np.square, lambda g, v, o: g * 2.0 * v, "v"),
    "sin": (np.sin, lambda g, v, o: g * np.cos(v), "v"),
    "tanh": (np.tanh, lambda g, v, o: g * (1.0 - o * o), "o"),
    "sigmoid": (_stable_sigmoid, lambda g, v, o: g * o * (1.0 - o), "o"),
}


def _binary(name, a, b):
    """The binary elementwise op ``name`` of :data:`_BINARY`. Its backward
    keeps flags, shapes and only the operand values that the rules read.
    Like those of :func:`_unary` and :func:`_reduction`, it binds them as
    default arguments, which cost less than closure cells: a forward-only
    graph makes one backward per op and drops it."""
    forward, back_a, back_b, keep = _BINARY[name]
    tape = _tape_of(a, b)
    a = _coerce(tape, a)
    b = _coerce(tape, b)
    try:
        value = forward(a.value, b.value)
    except ValueError:
        raise ShapeError(f"{name}: incompatible shapes {a.shape} and {b.shape}") from None
    av, bv = (a.value, b.value) if keep else (None, None)

    def backward(g, a_req=a.requires_grad, b_req=b.requires_grad, a_shape=a.value.shape,
                 b_shape=b.value.shape, back_a=back_a, back_b=back_b, av=av, bv=bv):
        ga = _unbroadcast(back_a(g, av, bv), a_shape) if a_req else None
        gb = _unbroadcast(back_b(g, av, bv), b_shape) if b_req else None
        return (ga, gb)

    return tape._op(value, (a, b), backward)


def _unary(name, x, op=None):
    """The unary elementwise op ``op``, a (forward, rule, values read) as in
    :data:`_UNARY`, by default its entry ``name``. Values the rule does not
    read reach it as None. An operand of the storage dtype gives an output of
    that dtype, so ``o`` is the output's value."""
    forward, back, keep = op or _UNARY[name]
    tape = _tape_of(x)
    value = forward(x.value)
    xv = x.value if "v" in keep else None
    ov = value if "o" in keep else None
    return tape._op(value, (x,), lambda g, back=back, xv=xv, ov=ov: (back(g, xv, ov),))


# ---------------------------------------------------------------------------
# elementwise primitives (broadcasting, gradients reduced back to operands)

def add(a, b):
    return _binary("add", a, b)


def sub(a, b):
    return _binary("sub", a, b)


def mul(a, b):
    return _binary("mul", a, b)


def div(a, b):
    return _binary("div", a, b)


def neg(x):
    return _unary("neg", x)


def absolute(x):
    return _unary("abs", x)


def exp(x):
    return _unary("exp", x)


def log(x):
    return _unary("log", x)


def sqrt(x):
    return _unary("sqrt", x)


def square(x):
    return _unary("square", x)


def power(x, p):
    p = float(p)
    return _unary("power", x, (lambda v: np.power(v, p),
                               lambda g, v, o: g * p * np.power(v, p - 1.0), "v"))


def sin(x):
    return _unary("sin", x)


def tanh(x):
    return _unary("tanh", x)


def sigmoid(x):
    return _unary("sigmoid", x)


def leaky_relu(x, slope=0.2):
    slope = float(slope)
    return _unary("leaky_relu", x, (lambda v: np.where(v > 0, v, slope * v),
                                    lambda g, v, o: g * np.where(v > 0, 1.0, slope), "v"))


def clamp(x, lo, hi):
    lo, hi = float(lo), float(hi)
    return _unary("clamp", x, (lambda v: np.clip(v, lo, hi),
                               lambda g, v, o: g * ((v > lo) & (v < hi)), "v"))


def affine(x, scale, offset):
    """scale * x + offset with float coefficients."""
    scale, offset = float(scale), float(offset)
    return _unary("affine", x, (lambda v: scale * v + offset, lambda g, v, o: g * scale, ""))


def custom(fn, *nodes):
    """A function of several nodes with a hand-derived backward, as one record.

    ``fn(*values) -> (value, vjp)`` computes the output from the input
    values; ``vjp(g)`` returns one gradient per input: None where it has
    none, else an array of that input's exact shape, taken as it is. The
    record keeps ``vjp``, the input shapes and their ``requires_grad`` flags,
    never the nodes, so the tape holds no reference cycle through it.
    """
    tape = _tape_of(*nodes)
    nodes = [_coerce(tape, n) for n in nodes]
    value, vjp = fn(*(n.value for n in nodes))
    shapes = tuple(n.value.shape for n in nodes)
    reqs = tuple(n.requires_grad for n in nodes)

    def backward(g):
        parts = tuple(vjp(g))
        if len(parts) != len(shapes):
            raise ShapeError(f"custom: vjp gave {len(parts)} gradients "
                             f"for {len(shapes)} inputs")
        for part, shape, req in zip(parts, shapes, reqs):
            if req and part is not None and np.shape(part) != shape:
                raise ShapeError(f"custom: gradient of shape {np.shape(part)} "
                                 f"for an input of shape {shape}")
        return parts

    return tape._op(value, nodes, backward)


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
    in_shape = x.value.shape

    def backward(g):
        buf = np.zeros(in_shape, dtype=g.dtype)
        buf[slices] = g
        return (buf,)

    return tape._op(np.ascontiguousarray(x.value[slices]), (x,), backward)


def concat(nodes, axis=0):
    nodes = list(nodes)
    tape = _tape_of(*nodes)
    nodes = [_coerce(tape, n) for n in nodes]
    try:
        value = np.concatenate([n.value for n in nodes], axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat: incompatible shapes {[n.shape for n in nodes]} along axis {axis}") from None
    sizes = [n.value.shape[axis] for n in nodes]

    def backward(g):
        offsets = np.cumsum([0] + sizes)
        parts = []
        for i in range(len(sizes)):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            parts.append(np.ascontiguousarray(g[tuple(sl)]))
        return tuple(parts)

    return tape._op(value, nodes, backward)


def stack(nodes):
    """Stack same-shape nodes along a new leading axis."""
    nodes = list(nodes)
    tape = _tape_of(*nodes)
    nodes = [_coerce(tape, n) for n in nodes]
    try:
        value = np.stack([n.value for n in nodes])
    except ValueError:
        raise ShapeError(f"stack: unequal shapes {[n.shape for n in nodes]}") from None
    return tape._op(value, nodes, lambda g: tuple(g))


def reshape(x, shape):
    tape = _tape_of(x)
    try:
        value = x.value.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot reshape {x.shape} to {shape}") from None
    in_shape = x.value.shape
    return tape._op(value, (x,), lambda g: (g.reshape(in_shape),))


def take(x, indices):
    """Gather from the flattened tensor; gradient scatter-adds."""
    tape = _tape_of(x)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.value.size):
        raise TensorError("take: index out of range")
    in_shape, size = x.value.shape, x.value.size

    def backward(g):
        buf = np.zeros(size, dtype=_ACC)
        np.add.at(buf, idx.ravel(), np.asarray(g, dtype=_ACC).ravel())
        return (buf.reshape(in_shape),)

    return tape._op(x.value.reshape(-1)[idx], (x,), backward)


# ---------------------------------------------------------------------------
# reductions (float64 accumulation, fixed order)

def _reduction(tape, x, total, count=1, axes=None):
    """Record ``total / count``, ``total`` a float64 sum of ``x`` over
    ``axes`` (None: all of them); the backward spreads ``g / count`` back
    over those axes. A sum (``count`` 1) skips the division."""
    def backward(g, count=count, axes=axes, shape=x.value.shape):
        if count != 1:
            g = g / count
        if axes is not None:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, shape),)

    return tape._op(total if count == 1 else total / count, (x,), backward)


def sum_all(x):
    tape = _tape_of(x)
    return _reduction(tape, x, x.value.sum(dtype=_ACC))


def sum_axis(x, axis):
    """Sum along one axis, which is dropped."""
    tape = _tape_of(x)
    shape = x.value.shape
    if not -len(shape) <= axis < len(shape):
        raise ShapeError(f"sum_axis: axis {axis} out of range for shape {shape}")
    return _reduction(tape, x, x.value.sum(axis=axis, dtype=_ACC), 1, axis)


def mean_all(x):
    tape = _tape_of(x)
    return _reduction(tape, x, x.value.sum(dtype=_ACC), x.value.size)


def mean_rows(x):
    """Mean over every axis but the first, shape (B,): entry i equals
    :func:`mean_all` of row ``x[i]``."""
    tape = _tape_of(x)
    shape = x.value.shape
    if len(shape) < 2:
        raise ShapeError(f"mean_rows: need a leading row axis, got shape {shape}")
    return _reduction(tape, x, x.value.reshape(shape[0], -1).sum(axis=1, dtype=_ACC),
                      math.prod(shape[1:]), tuple(range(1, len(shape))))


# ---------------------------------------------------------------------------
# dense / convolution / resampling

def dense(w, x, bias=None):
    """Matrix-vector product w @ x + bias, row by row for a batch.

    w: (m, n); x: (n,) or a batch (B, n); bias: (m,) optional. Returns (m,)
    or (B, m). Every row of a batch is bit-identical to the product with
    that row alone.
    """
    tape = _tape_of(w, x)
    w = _coerce(tape, w)
    x = _coerce(tape, x)
    if (w.value.ndim != 2 or x.value.ndim not in (1, 2)
            or w.value.shape[1] != x.value.shape[-1]):
        raise ShapeError(f"dense: weight {w.shape} incompatible with input {x.shape}")
    xs, ys = ("bn", "bm") if x.value.ndim == 2 else ("n", "m")  # einsum subscripts
    inputs = [w, x]
    value = np.einsum(f"mn,{xs}->{ys}", w.value, x.value, dtype=_ACC)
    if bias is not None:
        bias = _coerce(tape, bias)
        if bias.value.shape != (w.value.shape[0],):
            raise ShapeError(f"dense: bias {bias.shape} incompatible with weight {w.shape}")
        value = value + bias.value
        inputs.append(bias)
    wv, xv = w.value, x.value
    w_req, x_req = w.requires_grad, x.requires_grad
    bias_req = bias is not None and bias.requires_grad

    def backward(g):
        gw = np.einsum(f"{ys},{xs}->mn", g, xv, dtype=_ACC) if w_req else None
        gx = np.einsum(f"mn,{ys}->{xs}", wv, g, dtype=_ACC) if x_req else None
        return gw, gx, (_unbroadcast(g, wv.shape[:1]) if bias_req else None)

    return tape._op(value, inputs, backward)


def _along_axis(v, m, axis):
    # m @ v along one axis of v, as one (batched) float64 matmul; that axis
    # becomes m.shape[0] long
    shape = v.shape
    v = np.asarray(v, dtype=_ACC)
    if axis == v.ndim - 1:
        out = v.reshape(-1, shape[axis]) @ m.T
    else:
        out = m @ v.reshape(int(np.prod(shape[:axis])), shape[axis], -1)
    return out.reshape(shape[:axis] + (m.shape[0],) + shape[axis + 1:])


def _banded(taps, n):
    # (n, n) matrix of a "same" zero-padded correlation with odd taps along
    # an axis of length n, M[i, j] = taps[j - i + h]: taps that would reach
    # past either end meet only zero padding and are dropped
    h = taps.shape[0] // 2
    offset = np.arange(n)[None, :] - np.arange(n)[:, None] + h
    inside = (offset >= 0) & (offset < taps.shape[0])
    return np.where(inside, taps[np.clip(offset, 0, taps.shape[0] - 1)], 0.0)


_BAND_BLOCK = 16  # outputs per window of _band


def _band(v, taps, axis):
    # _along_axis(v, _banded(taps, n), axis) without the zeros: one float64
    # matmul of the (b, b + 2h) band block over strided windows of b + 2h
    # samples of v, b outputs each, and, for the outputs whose window would
    # reach past an end of the axis, the rows of the banded matrix they need
    # over the samples they read. An axis too short for one window takes
    # the whole matrix
    shape = v.shape
    n, h, b = shape[axis], taps.shape[0] // 2, _BAND_BLOCK
    lo = -(-h // b) * b  # outputs before the first window, which starts at lo - h
    k = (n - h - lo) // b  # the windows that end inside the axis
    if k < 1:
        return _along_axis(v, _banded(taps, n), axis)
    hi = lo + k * b
    pre, post = math.prod(shape[:axis]), math.prod(shape[axis + 1:])
    x = np.asarray(v, dtype=_ACC).reshape((pre, n) if post == 1 else (pre, n, post))
    out = np.empty(x.shape, dtype=_ACC)
    w = _banded(taps, b + 2 * h)[h:h + b]
    s = x.strides
    if post == 1:
        # the last axis: each window is a (pre, b + 2h) column block of x,
        # and its b outputs a (pre, b) column block of out
        win = np.lib.stride_tricks.as_strided(x[:, lo - h:], (k, pre, b + 2 * h),
                                              (b * s[1], s[0], s[1]))
        np.matmul(win, w.T, out=out[:, lo:hi].reshape(pre, k, b).transpose(1, 0, 2))
    else:
        win = np.lib.stride_tricks.as_strided(x[:, lo - h:], (pre, k, b + 2 * h, post),
                                              (s[0], b * s[1], s[1], s[2]))
        np.matmul(w, win, out=out[:, lo:hi].reshape(pre, k, b, post))
    # the outputs before the first window and after the last
    for m, src, dst in ((_banded(taps, lo + h)[:lo], x[:, :lo + h], out[:, :lo]),
                        (_banded(taps, n - hi + h)[h:], x[:, hi - h:], out[:, hi:])):
        if m.size and post == 1:
            np.matmul(src, m.T, out=dst)
        elif m.size:
            np.matmul(m, src, out=dst)
    return out.reshape(shape)


def matmul_axis(x, m, axis):
    """A constant matrix m (n_out, n_in) applied along one axis of x, whose
    length there is n_in: that axis becomes n_out long. One float64 matmul
    forward, m.T backward."""
    tape = _tape_of(x)
    m = np.asarray(m, dtype=_ACC)
    if m.ndim != 2 or not 0 <= axis < x.value.ndim or m.shape[1] != x.value.shape[axis]:
        raise ShapeError(f"matmul_axis: matrix {m.shape} does not fit axis {axis} of {x.shape}")
    mt = m.T
    return tape._op(_along_axis(x.value, m, axis), (x,), lambda g: (_along_axis(g, mt, axis),))


def _padded(v, kshape):
    # v (C, Z, Y, X) zero-padded by half a kernel on every side into one
    # fresh float64 buffer, flattened to (C, Zp*Yp*Xp)
    c, nz, ny, nx = v.shape
    pz, py, px = (k // 2 for k in kshape)
    buf = np.zeros((c, nz + 2 * pz, ny + 2 * py, nx + 2 * px), dtype=_ACC)
    buf[:, pz:pz + nz, py:py + ny, px:px + nx] = v
    return buf.reshape(c, -1)


def _columns(flat, kx):
    # the column buffer of a padded (C, Np) input for kernels kx wide:
    # (kx*C, Np - kx + 1), row block k the input shifted by k columns, so
    # column o holds the kx x-taps of every channel at flat offset o
    if kx == 1:
        return flat
    c, npad = flat.shape
    cols = np.empty((kx, c, npad - kx + 1), dtype=_ACC)
    for k in range(kx):
        cols[k] = flat[:, k:k + npad - kx + 1]
    return cols.reshape(kx * c, -1)


def _fold_columns(cols, kx):
    # the adjoint of _columns: the kx row blocks of a (kx*C, N) buffer added
    # into one (C, N + kx - 1) buffer, block k shifted by k columns
    if kx == 1:
        return cols
    c, n = cols.shape[0] // kx, cols.shape[1]
    flat = np.zeros((c, n + kx - 1), dtype=_ACC)
    for k in range(kx):
        flat[:, k:k + n] += cols[k * c:(k + 1) * c]
    return flat


def _kernel_rows(cols, kshape, shape):
    # per kernel row (i, j), in np.ndindex order, the (kx*C, L) view of the
    # column buffer of a (C, *shape) grid v whose column z*Yp*Xp + y*Xp + x
    # holds that row's taps at output (z, y, x): row block k reads
    # v[:, z+i-pz, y+j-py, x+k-px]. L reaches column (Z-1, Y-1, X-1); the
    # columns y >= Y or x >= X are not outputs. Adding into a view scatters
    # into the buffer.
    kz, ky, kx = kshape
    nz, ny, nx = shape
    yp, xp = ny + ky - 1, nx + kx - 1
    n = (nz - 1) * yp * xp + (ny - 1) * xp + nx
    return [cols[:, o:o + n] for o in (i * yp * xp + j * xp for i, j in np.ndindex(kz, ky))]


def _column_grid(cols, shape, kshape):
    # (..., L) columns in the layout of _kernel_rows(·, kshape, shape) over a
    # (Z, Y, X) grid as a strided (..., Z, Y, X) view that skips the
    # columns y >= Y or x >= X
    nz, ny, nx = shape
    yp, xp = ny + kshape[1] - 1, nx + kshape[2] - 1
    step = cols.strides[-1]
    return np.lib.stride_tricks.as_strided(
        cols, cols.shape[:-1] + shape, cols.strides[:-1] + (yp * xp * step, xp * step, step))


def _correlate(cols, w, shape):
    # "same" correlation with w (O, C, kz, ky, kx) of the (C, *shape) array
    # whose column buffer cols is: one float64 (O, kx*C) @ (kx*C, L) matmul
    # per kernel row, accumulated in a contiguous (O, L) buffer and returned
    # as its strided (O, Z, Y, X) view
    rows = _row_blocks(w)
    views = _kernel_rows(cols, w.shape[2:], shape)
    acc = np.matmul(rows[0], views[0])
    term = np.empty_like(acc)
    for row, view in zip(rows[1:], views[1:]):
        acc += np.matmul(row, view, out=term)
    return _column_grid(acc, shape, w.shape[2:])


def _kernel_grad(flat, gflat, kshape, shape):
    # conv3d's kernel gradient from the padded input and output gradient:
    # gw[:, :, i, j, :] = g @ row(i, j).T, with g in the forward's column
    # layout: the centre row of padded g from its centre x-tap on, zero in
    # the columns that are not outputs
    views = _kernel_rows(_columns(flat, kshape[2]), kshape, shape)
    gf = _kernel_rows(gflat[:, kshape[2] // 2:], kshape, shape)[len(views) // 2]
    (kz, ky, kx), o, c = kshape, gflat.shape[0], flat.shape[0]
    gw = np.stack([gf @ view.T for view in views])
    return gw.reshape(kz, ky, o, kx, c).transpose(2, 4, 0, 1, 3)


def _bias_grad(g):
    # a (O, Z, Y, X) gradient summed per channel; the copy of a strided g
    # makes the order of the sum independent of its layout
    return np.ascontiguousarray(g).sum(axis=(1, 2, 3), dtype=_ACC)


def _conv_operands(name, x, w, bias):
    # the checks that conv3d and upconv3d share
    tape = _tape_of(x, w)
    x = _coerce(tape, x)
    w = _coerce(tape, w)
    if x.value.ndim != 4 or w.value.ndim != 5:
        raise ShapeError(f"{name}: expected rank-4 input and rank-5 kernel, "
                         f"got {x.shape} and {w.shape}")
    if w.value.shape[1] != x.value.shape[0]:
        raise ShapeError(f"{name}: kernel channels {w.shape} do not match input {x.shape}")
    if any(k % 2 == 0 for k in w.value.shape[2:]):
        raise ShapeError(f"{name}: kernel extents must be odd, got {w.value.shape[2:]}")
    if bias is not None:
        bias = _coerce(tape, bias)
        if bias.value.shape != (w.value.shape[0],):
            raise ShapeError(f"{name}: bias {bias.shape} incompatible with kernel {w.shape}")
    return tape, x, w, bias


def conv3d(x, w, bias=None):
    """3D cross-correlation, stride 1, "same" zero padding, odd kernels.

    x: (C, Z, Y, X); w: (O, C, kz, ky, kx); bias: (O,) optional. A constant
    single-channel kernel without bias that extends along one axis only (a
    separable PSF factor) is applied by windows of its band: one float64
    matmul takes a (b, b + 2h) block of the banded matrix over strided
    windows of b + 2h input samples, b outputs each, and the outputs whose
    window would reach past an end of the axis take the matrix rows they
    need. Its backward is the same op with the taps reversed.

    Every other kernel runs on a column buffer: the input is padded once and
    copied kx times, each copy shifted by one more column, so a kernel row's
    kx x-taps sit in one (kx*C, L) block. Each (i, j) kernel row is then one
    (O, kx*C) @ (kx*C, L) matmul over a shifted flat view of that buffer:
    kz*ky matmuls, not kz*ky*kx. The backward runs the same rows. Only the
    padded input is kept for the kernel gradient, whose backward rebuilds
    the column buffer. Both paths accumulate in float64 in a fixed order.
    """
    tape, x, w, bias = _conv_operands("conv3d", x, w, bias)
    kshape = w.value.shape[2:]
    long_axes = [a for a, k in enumerate(kshape) if k > 1]
    if (w.value.shape[:2] == (1, 1) and len(long_axes) == 1 and not w.requires_grad
            and bias is None):
        # a single-channel constant kernel along one axis (a separable PSF
        # factor): the column buffer would mostly multiply padding once the
        # kernel outgrows the axis, the band windows multiply only the band.
        # The adjoint of a "same" correlation is the correlation with the
        # reversed taps
        axis = 1 + long_axes[0]
        taps = np.asarray(w.value.reshape(-1), dtype=_ACC)
        flipped = taps[::-1]
        return tape._op(_band(x.value, taps, axis), (x,),
                        lambda g: (_band(g, flipped, axis),))
    shape = x.value.shape[1:]
    flat = _padded(x.value, kshape)
    value = _correlate(_columns(flat, kshape[2]), w.value, shape)
    inputs = [x, w]
    if bias is not None:
        value = value + bias.value[:, None, None, None]
        inputs.append(bias)
    wv = w.value
    x_req, w_req = x.requires_grad, w.requires_grad
    bias_req = bias is not None and bias.requires_grad
    flat = flat if w_req else None

    def backward(g):
        gflat = _padded(g, kshape)
        gx = gw = None
        if x_req:
            # correlate the output gradient with the flipped, channel-swapped kernel
            wt = wv[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
            gx = _correlate(_columns(gflat, kshape[2]), wt, shape)
        if w_req:
            gw = _kernel_grad(flat, gflat, kshape, shape)
        return gx, gw, (_bias_grad(g) if bias_req else None)

    return tape._op(np.ascontiguousarray(value, dtype=tape.dtype), inputs, backward)


CellPlan = collections.namedtuple("CellPlan", "shape kshape cells sources taps read back")


def cell_plan(shape, kshape, cells, sources=None):
    """The plan of :func:`conv3d_at`: a "same" correlation with a kernel of
    extents ``kshape`` over a (Z, Y, X) grid of ``shape``, evaluated at the
    distinct output ``cells`` (flat, layer-major indices) of an input that
    holds the whole grid, or only the cells ``sources`` (sorted distinct
    flat indices) when given. Its arrays are read only:

    - ``taps`` (kz*ky, kx, P): per kernel row (i, j), in np.ndindex order,
      and x-tap k, the input column each cell's tap reads: a flat grid
      index, or a position in ``sources``. A tap outside the grid reads
      column N, one past the last input column;
    - ``read``: the sorted input columns that some tap reads;
    - ``back`` (kz*ky, kx, len(read)): the same for the input gradient, the
      flipped kernel's taps at ``read`` into the P output cells, column P
      where a tap meets no output cell.
    """
    kz, ky, kx = kshape
    if any(k % 2 == 0 for k in kshape):
        raise ShapeError(f"cell_plan: kernel extents must be odd, got {kshape}")
    cells = np.asarray(cells, dtype=np.intp)
    n = math.prod(shape)
    if cells.ndim != 1 or (cells.size and (cells.min() < 0 or cells.max() >= n)):
        raise TensorError(f"cell_plan: cells must be a 1-D array of indices in [0, {n})")
    if np.unique(cells).size != cells.size:
        raise TensorError("cell_plan: output cells must be distinct")
    z, y, x = np.unravel_index(cells, shape)
    zz = z + (np.arange(kz) - kz // 2)[:, None, None, None]
    yy = y + (np.arange(ky) - ky // 2)[None, :, None, None]
    xx = x + (np.arange(kx) - kx // 2)[None, None, :, None]
    inside = ((zz >= 0) & (zz < shape[0]) & (yy >= 0) & (yy < shape[1])
              & (xx >= 0) & (xx < shape[2]))
    flat = (zz * shape[1] + yy) * shape[2] + xx
    if sources is not None:
        sources = np.array(sources, dtype=np.intp)
        if sources.ndim != 1 or np.any(np.diff(sources) <= 0):
            raise TensorError("cell_plan: sources must be sorted distinct indices")
        pos = np.searchsorted(sources, flat)
        held = np.append(sources, -1)[pos] == flat
        if np.any(inside & ~held):
            raise TensorError("cell_plan: a tap reads a cell outside sources")
        flat, n = pos, sources.size
    taps = np.where(inside, flat, n).reshape(kz * ky, kx, -1)
    # output cell p's tap (i, j, k) reads column q, so the flipped kernel's
    # tap (kz-1-i, ky-1-j, kx-1-k) at q meets p
    read = np.unique(taps[taps < n])
    back = np.full((kz * ky, kx, read.size), cells.size, dtype=np.intp)
    ri, ki, pi = np.nonzero(taps < n)
    back[kz * ky - 1 - ri, kx - 1 - ki, np.searchsorted(read, taps[ri, ki, pi])] = pi
    plan = CellPlan(tuple(shape), tuple(kshape), cells.copy(), sources, taps, read, back)
    for v in plan[2:]:
        if v is not None:
            v.flags.writeable = False
    return plan


def _row_blocks(w):
    # the kernel rows of w (O, C, kz, ky, kx) as (kz*ky, O, kx*C) float64,
    # in np.ndindex order, column k*C + c the weight of channel c's x-tap k
    o, c, kz, ky, kx = w.shape
    return np.ascontiguousarray(w.transpose(2, 3, 0, 4, 1), dtype=_ACC).reshape(-1, o, kx * c)


def _correlate_at(x, rows, taps):
    # _correlate's sums, evaluated only at the output cells of a
    # (kz*ky, kx, P) tap plan over the (C, N) columns x, column N a zero
    # column: each kernel row's (kx*C, P) patch gathered from x in the
    # row order of _columns, then one float64 (O, kx*C) @ (kx*C, P) matmul
    # per kernel row in np.ndindex order. Returns (O, P).
    c, n = x.shape
    p = taps.shape[2]
    if p == 1:
        # a one-column product takes the matrix-vector path, which rounds
        # differently, so one output cell runs as two
        taps = np.concatenate([taps, np.full_like(taps, n)], axis=2)
    xz = np.zeros((c, n + 1), dtype=_ACC)
    xz[:, :n] = x
    patches = np.empty(taps.shape[:2] + (c, taps.shape[2]), dtype=_ACC)
    for ch in range(c):
        np.take(xz[ch], taps, out=patches[:, :, ch])
    patches = patches.reshape(len(rows), -1, taps.shape[2])
    acc = np.matmul(rows[0], patches[0])
    term = np.empty_like(acc)
    for row, patch in zip(rows[1:], patches[1:]):
        acc += np.matmul(row, patch, out=term)
    return acc[:, :p]


def _on_grid(v, shape, cells, dtype):
    # (K, len(cells)) values as a fresh (K, *shape) grid, zero elsewhere
    grid = np.zeros((v.shape[0], math.prod(shape)), dtype=dtype)
    grid[:, cells] = v
    return grid.reshape((v.shape[0],) + tuple(shape))


def conv3d_at(x, w, bias, plan):
    """``conv3d`` evaluated only at the output cells of a :func:`cell_plan`.

    x: (C, N), the input at the plan's N input cells (the whole grid, or
    its ``sources``); w: (O, C, kz, ky, kx); bias: (O,) or None. Returns
    (O, P) for the plan's P cells. Each kernel row's (kx*C, P) taps are
    gathered from x, and the rows run in ``conv3d``'s order: one float64
    (O, kx*C) @ (kx*C, P) matmul per kernel row in np.ndindex order, the
    bias added after. Column p therefore equals ``conv3d`` at cell p
    wherever BLAS rounds each column of a product as it would in a wider
    one. The OpenBLAS kernels measured do for kx*C <= 15 (the default
    generator's last block and head have 12); above that, or with one
    output channel, a column can differ in the last bit.

    The backward takes ``conv3d``'s own order too. The input gradient is
    the output gradient correlated with the flipped, channel-swapped
    kernel, evaluated the same way at the input columns the taps read,
    and so holds where the values do. The kernel and bias gradients run
    ``conv3d``'s code on the output gradient and the input put on the
    full grid, zero elsewhere: an exact zero adds nothing to a sum, so
    they equal ``conv3d``'s whenever the gradient is zero off the cells.
    """
    tape = _tape_of(x, w)
    x, w = _coerce(tape, x), _coerce(tape, w)
    shape, kshape = plan.shape, plan.kshape
    n = math.prod(shape) if plan.sources is None else plan.sources.size
    if (x.value.ndim != 2 or w.value.ndim != 5 or w.value.shape[1] != x.value.shape[0]
            or x.value.shape[1] != n or w.value.shape[2:] != kshape):
        raise ShapeError(f"conv3d_at: expected a (C, {n}) input and an (O, C, *{kshape}) "
                         f"kernel, got {x.shape} and {w.shape}")
    o, c = w.value.shape[:2]
    inputs = [x, w]
    if bias is not None:
        bias = _coerce(tape, bias)
        if bias.value.shape != (o,):
            raise ShapeError(f"conv3d_at: bias {bias.shape} incompatible with kernel {w.shape}")
        inputs.append(bias)
    value = _correlate_at(x.value, _row_blocks(w.value), plan.taps)
    if bias is not None:
        value = value + bias.value[:, None]
    x_req, w_req = x.requires_grad, w.requires_grad
    wv, xv = w.value, x.value if w_req else None
    bias_req = bias is not None and bias.requires_grad

    def backward(g):
        gx = gw = None
        if x_req:
            wt = wv[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
            gx = np.zeros((c, n), dtype=_ACC)
            gx[:, plan.read] = _correlate_at(g, _row_blocks(wt), plan.back)
        if w_req or bias_req:
            g = _on_grid(g, shape, plan.cells, g.dtype)
        if w_req:
            xg = xv.reshape((c,) + shape) if plan.sources is None else _on_grid(
                xv, shape, plan.sources, _ACC)
            gw = _kernel_grad(_padded(xg, kshape), _padded(g, kshape), kshape, shape)
        return gx, gw, (_bias_grad(g) if bias_req else None)

    return tape._op(np.ascontiguousarray(value, dtype=tape.dtype), inputs, backward)


@functools.lru_cache(maxsize=16)
def _phase_plan(kshape):
    # How a "same" kernel of extents kshape on the nearest-upsampled grid
    # runs on the coarse grid. Per axis, A[r, s, t] = 1 where tap t at
    # output phase r reads coarse offset s - hc: fine index 2p + r + t - h
    # lies in coarse cell p + (r + t - h) // 2, with h = k // 2 and
    # hc = ceil(h / 2). Returns the coarse extents; per coarse offset s, in
    # np.ndindex order, the phases that read s (a slice per axis: every
    # subset of {0, 1} is contiguous) and their rows [lo, hi) of P; and P,
    # the (rows, kz*ky*kx) 0/1 map from the taps to those (offset, phase)
    # rows, the product of the three A
    axes = []
    for k in kshape:
        h = k // 2
        hc = (h + 1) // 2
        r, t = np.arange(2)[:, None], np.arange(k)
        a = np.zeros((2, 2 * hc + 1, k))
        a[r, (r + t - h) // 2 + hc, t] = 1.0
        axes.append(a)
    rows, offsets = [], []
    for s in np.ndindex(*(a.shape[1] for a in axes)):
        phases = []
        for a, i in zip(axes, s):
            read = np.flatnonzero(a[:, i].any(axis=1))
            phases.append(slice(int(read[0]), int(read[-1]) + 1))
        lo = len(rows)
        for r in np.ndindex(*(ph.stop - ph.start for ph in phases)):
            az, ay, ax = (a[ph.start + ri, i] for a, ph, ri, i in zip(axes, phases, r, s))
            rows.append(np.multiply.outer(np.multiply.outer(az, ay), ax).ravel())
        offsets.append((tuple(phases), lo, len(rows)))
    p = np.array(rows)
    p.flags.writeable = False
    return tuple(a.shape[1] for a in axes), tuple(offsets), p


@functools.lru_cache(maxsize=16)
def _phase_groups(kshape):
    # The rows of _phase_plan(kshape)'s P regrouped for a column buffer over
    # the coarse x-offsets. Output x-phase rx reads the contiguous coarse
    # x-offsets [a, a + span), span = kx // 2 + 1 for either phase. Returns
    # the coarse extents; span; per coarse (z, y) offset pair s (its index
    # in np.ndindex order) and x-phase rx, in that order, a group: s, the
    # phases that read s at rx (rx, then a slice per axis), a, and the
    # group's blocks [lo, hi), one per (rz, ry) phase; and Q, the rows of P
    # at block n and x-offset sx in row n*span + sx - a
    ck, offsets, p = _phase_plan(kshape)
    row = {}
    for s, (phases, lo, _) in zip(np.ndindex(*ck), offsets):
        for i, r in enumerate(np.ndindex(*(ph.stop - ph.start for ph in phases))):
            row[s, tuple(ph.start + ri for ph, ri in zip(phases, r))] = lo + i
    span = kshape[2] // 2 + 1
    groups, picks = [], []
    for s, (sz, sy) in enumerate(np.ndindex(*ck[:2])):
        pz, py, _ = offsets[s * ck[2]][0]
        for rx in range(2):
            a = min(sx for sx in range(ck[2]) if ((sz, sy, sx), (pz.start, py.start, rx)) in row)
            lo = len(picks) // span
            picks += [row[(sz, sy, sx), (rz, ry, rx)]
                      for rz in range(pz.start, pz.stop) for ry in range(py.start, py.stop)
                      for sx in range(a, a + span)]
            groups.append((s, (rx, pz, py), a, lo, len(picks) // span))
    q = p[picks]
    q.flags.writeable = False
    return ck, span, tuple(groups), q


def upconv3d(x, w, bias=None):
    """``conv3d(upsample2(x), w, bias)``, computed on the coarse grid.

    x: (C, Z, Y, X); w: (O, C, kz, ky, kx), any odd extents; bias: (O,)
    optional. Returns (O, 2Z, 2Y, 2X).

    Per axis, output index 2p + r (phase r in {0, 1}) of tap t reads coarse
    index p + floor((r + t - h) / 2), h = k // 2. That is a 0/1 map
    A[r, s, t] from taps to coarse offsets s, ceil(h / 2) of them on either
    side. For k = 3::

        phase 0: taps (0, 1, 2) read offsets (-1, 0, 0)
        phase 1: taps (0, 1, 2) read offsets ( 0, 0, +1)

    so each phase sums 2 of the 3 taps per axis, and a 3x3x3 kernel becomes
    eight 2x2x2 phase kernels on the coarse grid: 0.30x the multiply-adds of
    the upsampled correlation. The coarse input is padded once and copied
    into a column buffer, as in conv3d. Per coarse (z, y) offset pair and
    output x-phase, the x-offsets read are contiguous (two for k = 3), so
    the phases that read that pair cost one float64 (n*O, 2C) @ (2C, L)
    matmul over a row range of the buffer's shifted view: 18 matmuls for
    3x3x3, with no zero blocks. They add into one (2, 2, 2, O, L) buffer
    (phases rx, rz, ry: each group's slice of it is mostly contiguous),
    and one copy interleaves the phases into the output. The backward runs
    the same groups: the input gradient accumulates m.T @ g in a column
    buffer whose row blocks are folded into the padded gradient once, and
    the kernel gradient folds the phase kernels' gradients back through A.
    """
    tape, x, w, bias = _conv_operands("upconv3d", x, w, bias)
    kshape, span, groups, q = _phase_groups(w.value.shape[2:])
    (o, c), shape = w.value.shape[:2], x.value.shape[1:]
    # rows n*O:(n+1)*O of m are block n's (O, span*C) phase kernel, its
    # columns (sx - a)*C + channel in the layout of the column buffer
    m = (q @ np.asarray(w.value, dtype=_ACC).reshape(o * c, -1).T).reshape(
        -1, span, o, c).transpose(0, 2, 1, 3).reshape(-1, span * c)
    flat = _padded(x.value, kshape)
    cols = _columns(flat, kshape[2])
    views = _kernel_rows(cols, kshape, shape)
    ncol = views[0].shape[1]
    acc = np.zeros((2, 2, 2, o, ncol), dtype=_ACC)
    term = np.empty((4 * o, ncol), dtype=_ACC)  # a group has at most 2x2 (rz, ry) blocks
    for s, phases, a, lo, hi in groups:
        dst = acc[phases]
        dst += np.matmul(m[lo * o:hi * o], views[s][a * c:(a + span) * c],
                         out=term[:(hi - lo) * o]).reshape(dst.shape)
    # (rx, rz, ry, O, Z, Y, X) -> (O, Z, rz, Y, ry, X, rx), one copy
    value = _column_grid(acc, shape, kshape).transpose(3, 4, 1, 5, 2, 6, 0).reshape(
        (o,) + tuple(2 * e for e in shape))
    inputs = [x, w]
    if bias is not None:
        value += bias.value[:, None, None, None]
        inputs.append(bias)
    wshape, cshape = w.value.shape, cols.shape
    x_req, w_req = x.requires_grad, w.requires_grad
    bias_req = bias is not None and bias.requires_grad
    flat = flat if w_req else None

    def backward(g):
        # g in the forward's (2, 2, 2, O, L) column layout, zero in the
        # columns that are not outputs
        nz, ny, nx = shape
        gp = np.zeros((2, 2, 2, o, ncol), dtype=_ACC)
        _column_grid(gp, shape, kshape)[...] = g.reshape(
            o, nz, 2, ny, 2, nx, 2).transpose(6, 2, 4, 0, 1, 3, 5)
        gcols = np.zeros(cshape, dtype=_ACC) if x_req else None
        gviews = _kernel_rows(gcols, kshape, shape) if x_req else None
        views = _kernel_rows(_columns(flat, kshape[2]), kshape, shape) if w_req else None
        gm = np.empty_like(m) if w_req else None
        term = np.empty((span * c, ncol), dtype=_ACC)
        for s, phases, a, lo, hi in groups:
            gs = gp[phases].reshape(-1, ncol)
            rows = slice(a * c, (a + span) * c)
            if x_req:
                gviews[s][rows] += np.matmul(m[lo * o:hi * o].T, gs, out=term)
            if w_req:
                np.matmul(gs, views[s][rows].T, out=gm[lo * o:hi * o])
        gx = gw = None
        if x_req:  # the interior of the padded gradient
            pz, py, px = (k // 2 for k in kshape)
            gx = _fold_columns(gcols, kshape[2]).reshape(c, nz + 2 * pz, ny + 2 * py, -1)
            gx = gx[:, pz:pz + nz, py:py + ny, px:px + nx]
        if w_req:
            gm = gm.reshape(-1, o, span, c).transpose(0, 2, 1, 3).reshape(-1, o * c)
            gw = (gm.T @ q).reshape(wshape)
        return gx, gw, (g.sum(axis=(1, 2, 3), dtype=_ACC) if bias_req else None)

    return tape._op(value, inputs, backward)


def upsample2(x):
    """Nearest-neighbor x2 upsampling along the three spatial axes."""
    tape = _tape_of(x)
    if x.value.ndim != 4:
        raise ShapeError(f"upsample2: expected rank-4 input, got {x.shape}")

    def backward(g):
        # the eight children of each cell added one by one in (dz, dy, dx)
        # order, as a take of some of them reproduces: a missing child adds
        # an exact zero
        acc = np.array(g[:, 0::2, 0::2, 0::2], dtype=_ACC)
        for dz, dy, dx in list(np.ndindex(2, 2, 2))[1:]:
            acc += g[:, dz::2, dy::2, dx::2]
        return (acc,)

    return tape._op(x.value.repeat(2, axis=1).repeat(2, axis=2).repeat(2, axis=3), (x,),
                    backward)
