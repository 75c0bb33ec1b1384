"""Dense tensors with taped reverse-mode gradients.

A small eager engine: every operation computes its result with numpy and
appends a record to a :class:`GraphTape`; ``GraphTape.backward`` replays the
records in reverse order to accumulate exact gradients for all inputs.

Storage is float32 by default with a float64 mode for verification runs.
Contractions and reductions always accumulate in float64 with a fixed
(sequential) order, so repeated evaluations are bit-identical.
"""

from __future__ import annotations

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
    "affine", "custom", "dense", "matmul_axis", "conv3d", "upconv3d",
    "upsample2",
    "crop", "concat", "stack", "reshape", "take",
    "sum_all", "sum_axis", "mean_all", "mean_rows", "gradient_check",
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


def _binary(name, a, b, forward, back_a, back_b, keep):
    """Elementwise op of two operands. ``back_a(g, x, y, o)`` and ``back_b``
    give the operand gradients; ``keep`` names the values they read (x, y:
    operands, o: output). The others reach them as None, and the record
    captures ``requires_grad`` flags rather than the operand nodes, so a tape
    holds no array that its backward never reads."""
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
        a_req, b_req = a.requires_grad, b.requires_grad
        a_shape, b_shape = a.value.shape, b.value.shape
        av = a.value if "x" in keep else None
        bv = b.value if "y" in keep else None
        ov = value if "o" in keep else None

        def backward(g):
            ga = _unbroadcast(back_a(g, av, bv, ov), a_shape) if a_req else None
            gb = _unbroadcast(back_b(g, av, bv, ov), b_shape) if b_req else None
            return (ga, gb)

        tape._record(out, (a, b), backward)
    return out


def _unary(name, x, forward, back, keep):
    """Elementwise op of one operand; ``back(g, v, o)`` reads the values that
    ``keep`` names (v: operand, o: output), and the others are None."""
    tape = _tape_of(x)
    value = np.asarray(forward(x.value), dtype=tape.dtype)
    out = tape._new_node(value, x.requires_grad)
    if out.requires_grad:
        xv = x.value if "v" in keep else None
        ov = value if "o" in keep else None

        def backward(g):
            return (back(g, xv, ov),)

        tape._record(out, (x,), backward)
    return out


# ---------------------------------------------------------------------------
# elementwise primitives (broadcasting, gradients reduced back to operands)

def add(a, b):
    return _binary("add", a, b, lambda x, y: x + y,
                   lambda g, x, y, o: g, lambda g, x, y, o: g, keep="")


def sub(a, b):
    return _binary("sub", a, b, lambda x, y: x - y,
                   lambda g, x, y, o: g, lambda g, x, y, o: -g, keep="")


def mul(a, b):
    return _binary("mul", a, b, lambda x, y: x * y,
                   lambda g, x, y, o: g * y, lambda g, x, y, o: g * x, keep="xy")


def div(a, b):
    return _binary("div", a, b, lambda x, y: x / y,
                   lambda g, x, y, o: g / y,
                   lambda g, x, y, o: -g * x / (y * y), keep="xy")


def neg(x):
    return _unary("neg", x, lambda v: -v, lambda g, v, o: -g, keep="")


def absolute(x):
    return _unary("abs", x, np.abs, lambda g, v, o: g * np.sign(v), keep="v")


def exp(x):
    return _unary("exp", x, np.exp, lambda g, v, o: g * o, keep="o")


def log(x):
    return _unary("log", x, np.log, lambda g, v, o: g / v, keep="v")


def sqrt(x):
    return _unary("sqrt", x, np.sqrt, lambda g, v, o: g * 0.5 / o, keep="o")


def square(x):
    return _unary("square", x, np.square, lambda g, v, o: g * 2.0 * v, keep="v")


def power(x, p):
    p = float(p)
    return _unary("power", x, lambda v: np.power(v, p),
                  lambda g, v, o: g * p * np.power(v, p - 1.0), keep="v")


def sin(x):
    return _unary("sin", x, np.sin, lambda g, v, o: g * np.cos(v), keep="v")


def tanh(x):
    return _unary("tanh", x, np.tanh, lambda g, v, o: g * (1.0 - o * o), keep="o")


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


def sigmoid(x):
    return _unary("sigmoid", x, _stable_sigmoid, lambda g, v, o: g * o * (1.0 - o),
                  keep="o")


def leaky_relu(x, slope=0.2):
    slope = float(slope)
    return _unary("leaky_relu", x,
                  lambda v: np.where(v > 0, v, slope * v),
                  lambda g, v, o: g * np.where(v > 0, 1.0, slope), keep="v")


def clamp(x, lo, hi):
    lo, hi = float(lo), float(hi)
    return _unary("clamp", x,
                  lambda v: np.clip(v, lo, hi),
                  lambda g, v, o: g * ((v > lo) & (v < hi)), keep="v")


def affine(x, scale, offset):
    """scale * x + offset with float coefficients."""
    scale, offset = float(scale), float(offset)
    return _unary("affine", x, lambda v: scale * v + offset,
                  lambda g, v, o: g * scale, keep="")


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
    out = tape._new_node(np.asarray(value, dtype=tape.dtype),
                         any(n.requires_grad for n in nodes))
    if out.requires_grad:
        shapes = tuple(n.value.shape for n in nodes)
        reqs = tuple(n.requires_grad for n in nodes)

        def backward(g):
            parts = tuple(vjp(g))
            if len(parts) != len(shapes):
                raise ShapeError(f"custom: vjp gave {len(parts)} gradients "
                                 f"for {len(shapes)} inputs")
            out = []
            for part, shape, req in zip(parts, shapes, reqs):
                if part is None or not req:
                    out.append(None)
                    continue
                part = np.asarray(part)
                if part.shape != shape:
                    raise ShapeError(f"custom: gradient of shape {part.shape} "
                                     f"for an input of shape {shape}")
                out.append(part)
            return tuple(out)

        tape._record(out, nodes, backward)
    return out


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


def stack(nodes):
    """Stack same-shape nodes along a new leading axis."""
    nodes = list(nodes)
    tape = _tape_of(*nodes)
    nodes = [_coerce(tape, n) for n in nodes]
    try:
        value = np.stack([n.value for n in nodes])
    except ValueError:
        raise ShapeError(f"stack: unequal shapes {[n.shape for n in nodes]}") from None
    out = tape._new_node(value, any(n.requires_grad for n in nodes))
    if out.requires_grad:
        n = len(nodes)

        def backward(g):
            return tuple(g[i] for i in range(n))

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
        in_shape, size = x.value.shape, x.value.size

        def backward(g):
            buf = np.zeros(size, dtype=_ACC)
            np.add.at(buf, idx.ravel(), np.asarray(g, dtype=_ACC).ravel())
            return (buf.reshape(in_shape),)

        tape._record(out, (x,), backward)
    return out


# ---------------------------------------------------------------------------
# reductions (float64 accumulation, fixed order)

def _reduction(tape, x, total, count=1, axes=None):
    """Record ``total / count``, ``total`` a float64 sum of ``x`` over
    ``axes`` (None: all of them); the backward spreads ``g / count`` back
    over those axes. A sum (``count`` 1) skips the division."""
    out = tape._new_node(np.asarray(total if count == 1 else total / count, dtype=tape.dtype),
                         x.requires_grad)
    if out.requires_grad:
        shape = x.value.shape

        def backward(g):
            if count != 1:
                g = g / count
            if axes is not None:
                g = np.expand_dims(g, axes)
            return (np.broadcast_to(g, shape),)

        tape._record(out, (x,), backward)
    return out


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
    value = np.asarray(value, dtype=tape.dtype)
    out = tape._new_node(value, any(n.requires_grad for n in inputs))
    if out.requires_grad:
        wv, xv = w.value, x.value
        w_req, x_req = w.requires_grad, x.requires_grad
        bias_shape = None if bias is None else bias.value.shape
        bias_req = bias is not None and bias.requires_grad

        def backward(g):
            gw = np.einsum(f"{ys},{xs}->mn", g, xv, dtype=_ACC) if w_req else None
            gx = np.einsum(f"mn,{ys}->{xs}", wv, g, dtype=_ACC) if x_req else None
            parts = [gw, gx]
            if bias_shape is not None:
                parts.append(_unbroadcast(g, bias_shape) if bias_req else None)
            return tuple(parts)

        tape._record(out, tuple(inputs), backward)
    return out


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


def matmul_axis(x, m, axis):
    """A constant matrix m (n_out, n_in) applied along one axis of x, whose
    length there is n_in: that axis becomes n_out long. One float64 matmul
    forward, m.T backward."""
    tape = _tape_of(x)
    m = np.asarray(m, dtype=_ACC)
    if m.ndim != 2 or not 0 <= axis < x.value.ndim or m.shape[1] != x.value.shape[axis]:
        raise ShapeError(f"matmul_axis: matrix {m.shape} does not fit axis {axis} of {x.shape}")
    value = np.asarray(_along_axis(x.value, m, axis), dtype=tape.dtype)
    out = tape._new_node(value, x.requires_grad)
    if out.requires_grad:
        mt = m.T

        def backward(g):
            return (_along_axis(g, mt, axis),)

        tape._record(out, (x,), backward)
    return out


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
    o, c, kz, ky, kx = w.shape
    rows = np.ascontiguousarray(w.transpose(2, 3, 0, 4, 1), dtype=_ACC).reshape(-1, o, kx * c)
    views = _kernel_rows(cols, w.shape[2:], shape)
    acc = np.matmul(rows[0], views[0])
    term = np.empty_like(acc)
    for row, view in zip(rows[1:], views[1:]):
        acc += np.matmul(row, view, out=term)
    return _column_grid(acc, shape, w.shape[2:])


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
    separable PSF factor) is applied as a banded matrix along that axis.
    Every other kernel runs on a column buffer: the input is padded once
    and copied kx times, each copy shifted by one more column, so a kernel
    row's kx x-taps sit in one (kx*C, L) block. Each (i, j) kernel row is
    then one (O, kx*C) @ (kx*C, L) matmul over a shifted flat view of that
    buffer: kz*ky matmuls, not kz*ky*kx. The backward runs the same rows.
    Only the padded input is kept for the kernel gradient, whose backward
    rebuilds the column buffer. Both paths accumulate in float64 in a fixed
    order.
    """
    tape, x, w, bias = _conv_operands("conv3d", x, w, bias)
    kshape = w.value.shape[2:]
    long_axes = [a for a, k in enumerate(kshape) if k > 1]
    if (w.value.shape[:2] == (1, 1) and len(long_axes) == 1 and not w.requires_grad
            and bias is None):
        # a single-channel constant kernel along one axis (a separable PSF
        # factor): the column buffer would mostly multiply padding once the
        # kernel outgrows the axis, the banded matrix never does
        axis = 1 + long_axes[0]
        return matmul_axis(x, _banded(w.value.reshape(-1), x.value.shape[axis]), axis)
    shape = x.value.shape[1:]
    flat = _padded(x.value, kshape)
    value = _correlate(_columns(flat, kshape[2]), w.value, shape)
    inputs = [x, w]
    if bias is not None:
        value = value + bias.value[:, None, None, None]
        inputs.append(bias)
    value = np.ascontiguousarray(value, dtype=tape.dtype)
    out = tape._new_node(value, any(n.requires_grad for n in inputs))
    if out.requires_grad:
        wv = w.value
        x_req, w_req = x.requires_grad, w.requires_grad
        has_bias = bias is not None
        bias_req = has_bias and bias.requires_grad
        flat = flat if w_req else None

        def backward(g):
            gflat = _padded(g, kshape)
            gx = gw = None
            if x_req:
                # correlate the output gradient with the flipped, channel-swapped kernel
                wt = wv[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
                gx = _correlate(_columns(gflat, kshape[2]), wt, shape)
            if w_req:
                # gw[:, :, i, j, :] = g @ row(i, j).T, with g in the forward's
                # column layout: the centre row of padded g from its centre
                # x-tap on, zero in the columns that are not outputs
                views = _kernel_rows(_columns(flat, kshape[2]), kshape, shape)
                gf = _kernel_rows(gflat[:, kshape[2] // 2:], kshape, shape)[len(views) // 2]
                o, c, kz, ky, kx = wv.shape
                gw = np.stack([gf @ view.T for view in views])
                gw = gw.reshape(kz, ky, o, kx, c).transpose(2, 4, 0, 1, 3)
            parts = [gx, gw]
            if has_bias:
                parts.append(g.sum(axis=(1, 2, 3), dtype=_ACC) if bias_req else None)
            return tuple(parts)

        tape._record(out, tuple(inputs), backward)
    return out


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
    out = tape._new_node(value.astype(tape.dtype, copy=False),
                         any(n.requires_grad for n in inputs))
    if out.requires_grad:
        wshape, cshape = w.value.shape, cols.shape
        x_req, w_req = x.requires_grad, w.requires_grad
        has_bias = bias is not None
        bias_req = has_bias and bias.requires_grad
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
            parts = [gx, gw]
            if has_bias:
                parts.append(g.sum(axis=(1, 2, 3), dtype=_ACC) if bias_req else None)
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
