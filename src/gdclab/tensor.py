"""Rank-4 tensors with reverse-mode automatic differentiation.

Values are dense numpy arrays in (batch, channels, height, width) layout.
The graph is define-by-run: each operation records a backward closure on its
output node and ``backward(loss)`` replays the closures in reverse
topological order, accumulating ``.grad`` on every reachable tensor that
requires gradients.  float32 is the working precision for training; the
verification tooling runs the same graphs in float64 (see ``using_dtype``).

Scalars (losses, rates) are represented as tensors of shape (1, 1, 1, 1);
nothing in the engine supports other ranks, which keeps the shape algebra
small and easy to test.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
from scipy.special import erf as _erf

from .errors import ContractError, NumericError, ShapeError

_LN2 = math.log(2.0)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Central-difference step of grad_check.
GRAD_CHECK_STEP = 1e-5

_default_dtype = np.float32
_grad_enabled = True


@contextlib.contextmanager
def using_dtype(dtype):
    """Temporarily switch the dtype used when tensors are built from
    non-float data (used by 64-bit verification)."""
    global _default_dtype
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ContractError("only float32 and float64 tensors are supported")
    saved = _default_dtype
    _default_dtype = dtype.type
    try:
        yield
    finally:
        _default_dtype = saved


@contextlib.contextmanager
def no_grad():
    """Disable graph recording; forwards inside run as plain numpy."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


class Tensor:
    """A rank-4 array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_bwd")

    def __init__(self, data, requires_grad=False, *, op="leaf", parents=(), bwd=None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(_default_dtype)
        if arr.ndim != 4:
            raise ShapeError(f"tensors are rank-4, got shape {arr.shape}")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self.op = op
        self._parents = parents if self.requires_grad else ()
        self._bwd = bwd if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def _accum(self, g):
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, op={self.op})"


def _check_same(a, b, opname):
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise ContractError(f"{opname} expects Tensor operands")
    if a.shape != b.shape:
        raise ShapeError(f"{opname}: shape mismatch {a.shape} vs {b.shape}")
    if a.data.dtype != b.data.dtype:
        raise ContractError(f"{opname}: dtype mismatch {a.dtype} vs {b.dtype}")


def _node(data, parents, bwd, op):
    live = tuple(p for p in parents if p.requires_grad)
    if _grad_enabled and live:
        return Tensor(data, requires_grad=True, op=op, parents=live, bwd=bwd)
    return Tensor(data, requires_grad=False, op=op)


def add(a, b):
    _check_same(a, b, "add")

    def bwd(g):
        if a.requires_grad:
            a._accum(g)
        if b.requires_grad:
            b._accum(g)

    return _node(a.data + b.data, (a, b), bwd, "add")


def sub(a, b):
    _check_same(a, b, "sub")

    def bwd(g):
        if a.requires_grad:
            a._accum(g)
        if b.requires_grad:
            b._accum(-g)

    return _node(a.data - b.data, (a, b), bwd, "sub")


def mul(a, b):
    _check_same(a, b, "mul")

    def bwd(g):
        if a.requires_grad:
            a._accum(g * b.data)
        if b.requires_grad:
            b._accum(g * a.data)

    return _node(a.data * b.data, (a, b), bwd, "mul")


def div(a, b):
    _check_same(a, b, "div")

    def bwd(g):
        if a.requires_grad:
            a._accum(g / b.data)
        if b.requires_grad:
            b._accum(-g * a.data / (b.data * b.data))

    return _node(a.data / b.data, (a, b), bwd, "div")


def scale(a, s):
    s = float(s)

    def bwd(g):
        a._accum(g * np.asarray(s, dtype=a.data.dtype))

    return _node(a.data * np.asarray(s, dtype=a.data.dtype), (a,), bwd, "scale")


def add_scalar(a, s):
    s = float(s)

    def bwd(g):
        a._accum(g)

    return _node(a.data + np.asarray(s, dtype=a.data.dtype), (a,), bwd, "add_scalar")


def concat_channels(tensors):
    """Concatenate along the channel axis; batch and spatial dims must agree."""
    if not tensors:
        raise ContractError("concat_channels needs at least one tensor")
    first = tensors[0]
    for t in tensors[1:]:
        if (t.shape[0], t.shape[2], t.shape[3]) != (first.shape[0], first.shape[2], first.shape[3]):
            raise ShapeError(f"concat_channels: incompatible shapes {first.shape} vs {t.shape}")
        if t.data.dtype != first.data.dtype:
            raise ContractError("concat_channels: dtype mismatch")
    splits = np.cumsum([t.shape[1] for t in tensors])[:-1]

    def bwd(g):
        parts = np.split(g, splits, axis=1)
        for t, p in zip(tensors, parts):
            if t.requires_grad:
                t._accum(p)

    return _node(np.concatenate([t.data for t in tensors], axis=1), tuple(tensors), bwd, "concat")


def slice_channels(a, start, stop):
    if not (0 <= start < stop <= a.shape[1]):
        raise ShapeError(f"slice_channels: [{start}:{stop}] out of range for {a.shape[1]} channels")

    def bwd(g):
        full = np.zeros_like(a.data)
        full[:, start:stop] = g
        a._accum(full)

    return _node(a.data[:, start:stop].copy(), (a,), bwd, "slice_ch")


def crop_spatial(a, h0, h1, w0, w1):
    n, c, h, w = a.shape
    if not (0 <= h0 < h1 <= h and 0 <= w0 < w1 <= w):
        raise ShapeError(f"crop_spatial: window [{h0}:{h1},{w0}:{w1}] out of range for {a.shape}")

    def bwd(g):
        full = np.zeros_like(a.data)
        full[:, :, h0:h1, w0:w1] = g
        a._accum(full)

    return _node(a.data[:, :, h0:h1, w0:w1].copy(), (a,), bwd, "crop")


def sum_all(a):
    def bwd(g):
        a._accum(np.full_like(a.data, g.reshape(())))

    out = np.asarray(a.data.sum(), dtype=a.data.dtype).reshape(1, 1, 1, 1)
    return _node(out, (a,), bwd, "sum")


def mean_all(a):
    return scale(sum_all(a), 1.0 / a.size)


def power(a, p):
    """Elementwise a**p for a constant exponent; a must stay positive when
    p is not a positive integer."""
    p = float(p)
    out = np.power(a.data, p)

    def bwd(g):
        a._accum(g * p * np.power(a.data, p - 1.0))

    return _node(out, (a,), bwd, "power")


def log2(a):
    def bwd(g):
        a._accum(g / (a.data * a.data.dtype.type(_LN2)))

    return _node(np.log2(a.data), (a,), bwd, "log2")


def softplus(a):
    """log(1 + e^x), evaluated stably; gradient is the logistic sigmoid."""
    out = np.logaddexp(0.0, a.data).astype(a.data.dtype)

    def bwd(g):
        sig = 0.5 * (1.0 + np.tanh(0.5 * a.data))
        a._accum(g * sig)

    return _node(out, (a,), bwd, "softplus")


def normal_cdf(a):
    """Standard normal CDF Phi(x); gradient is the normal pdf."""
    out = (0.5 * (1.0 + _erf(a.data * _INV_SQRT2))).astype(a.data.dtype)

    def bwd(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * a.data * a.data)
        a._accum(g * pdf.astype(a.data.dtype))

    return _node(out, (a,), bwd, "normal_cdf")


def clamp_min(a, floor):
    """max(a, floor); gradient flows only where a > floor."""
    floor = float(floor)
    out = np.maximum(a.data, a.data.dtype.type(floor))

    def bwd(g):
        a._accum(g * (a.data > floor))

    return _node(out, (a,), bwd, "clamp_min")


def backward(loss):
    """Reverse-mode sweep from a scalar loss.

    Populates ``.grad`` on every tensor reachable from ``loss`` that has
    ``requires_grad`` set.  Gradients accumulate, so call ``zero_grad``
    (or rebuild the graph) between steps.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("loss does not require gradients; nothing to do")
    if not np.all(np.isfinite(loss.data)):
        raise NumericError("loss is not finite")

    # Iterative post-order DFS; recursion would overflow on deep conv stacks.
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    loss._accum(np.ones_like(loss.data))
    for node in reversed(topo):
        if node._bwd is not None and node.grad is not None:
            node._bwd(node.grad)


def grad_check(f, inputs):
    """Compare analytic gradients of ``f(*inputs)`` against central differences.

    ``f`` must build a fresh graph on every call and return a scalar tensor;
    any randomness inside (e.g. noise quantization) has to be reseeded per
    call so repeated evaluations agree.  Inputs must be float64 leaves with
    ``requires_grad`` set.  Returns the worst relative error

        max |analytic - numeric| / max(|analytic|, |numeric|, 1e-12)

    over every coordinate of every input.
    """
    for t in inputs:
        if t.data.dtype != np.float64:
            raise ContractError("grad_check requires float64 inputs")
        if not t.requires_grad:
            raise ContractError("grad_check inputs must require gradients")

    for t in inputs:
        t.zero_grad()
    out = f(*inputs)
    if out.data.size != 1:
        raise ContractError("grad_check target must return a scalar tensor")
    if not np.all(np.isfinite(out.data)):
        raise NumericError("grad_check: function value is not finite")
    backward(out)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]

    worst = 0.0
    with no_grad():
        for t, ga in zip(inputs, analytic):
            flat = t.data.reshape(-1)
            gflat = ga.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + GRAD_CHECK_STEP
                hi = f(*inputs).item()
                flat[i] = keep - GRAD_CHECK_STEP
                lo = f(*inputs).item()
                flat[i] = keep
                numeric = (hi - lo) / (2.0 * GRAD_CHECK_STEP)
                denom = max(abs(gflat[i]), abs(numeric), 1e-12)
                err = abs(gflat[i] - numeric) / denom
                if err > worst:
                    worst = err
    return worst
