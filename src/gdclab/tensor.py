"""Rank-4 tensors with reverse-mode automatic differentiation.

Values are dense numpy arrays in (batch, channels, height, width) layout.
The graph is define-by-run: each operation hands ``_node`` one edge per
input, the input plus its vector-Jacobian product (VJP), which maps the
output's gradient to that input's share.  ``_node`` keeps only the edges
into inputs that require gradients, and ``backward(loss)`` alone applies
the chain rule: in reverse topological order it accumulates each edge's
VJP of a node's ``.grad`` into the edge's input, in edge order.  float32
is the working precision for training, and the type non-float data becomes;
a graph runs in float64 when its inputs and parameters are float64.

Scalars (losses, rates) are represented as tensors of shape (1, 1, 1, 1);
nothing in the engine supports other ranks, which keeps the shape algebra
small and easy to test.

``erf`` gives the Gaussian CDF of the rate model and the coder tables from +, -, * and /.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import ContractError, NumericError, ShapeError

# erf(c) and exp(-c^2) at c = k/4, k = 0..24, correctly rounded, in float.hex digits.
_ERF_AT = np.array([float.fromhex(h) for h in """
    0p+0 1.1af54e232d609p-2 1.0a7ef5c18edd2p-1 1.6c1c9759d0e5fp-1 1.af767a741088bp-1
    1.d8865d98abe01p-1 1.eea5557137ae0p-1 1.f92d077f8d56dp-1 1.fd9ae142795e3p-1 1.ff404760319b4p-1
    1.ffcaa8f4c9beap-1 1.fff2cfb0453d9p-1 1.fffd1ac4135f9p-1 1.ffff6f9f67e55p-1 1.ffffe710d565ep-1
    1.fffffc2f171e3p-1 1.ffffff7b91176p-1 1.fffffff01a8b6p-1 1.fffffffe4fa30p-1 1.ffffffffd759dp-1
    1.fffffffffc9e8p-1 1.ffffffffffc05p-1 1.fffffffffffbep-1 1.ffffffffffffcp-1 1p+0""".split()])
_EXP_AT = np.array([float.fromhex(h) for h in """
    1p+0 1.e0fabfbc702a4p-1 1.8ebef9eac820bp-1 1.23ba930c1568bp-1 1.78b56362cef38p-2
    1.ad48bc25771c7p-3 1.afb718e8457f7p-4 1.7f251ab1af77bp-5 1.2c155b8213cf4p-6 1.9ed300c108a17p-8
    1.fa0e9586aebc7p-10 1.1068222437d65p-11 1.02cf22526545ap-13 1.b1fea4fbb871ap-16
    1.411fb0da07713p-18 1.a3604afdb0929p-21 1.e355bbaee85cbp-24 1.eb97d4afc3bd3p-27
    1.b93de1e27ca3bp-30 1.5d82c26ce1c09p-33 1.e8a37a45fc32ep-37 1.2d7026e60ab5ep-40
    1.4835bd010a41bp-44 1.3b5e5c86b9440p-48 1.0b6c3afdde064p-52""".split()])
# Taylor degree (terms left out < 5e-19 at |x - c| <= 1/8); elements per erf block.
ERF_DEGREE, ERF_BLOCK = 14, 8192
# Central-difference step of grad_check.
GRAD_CHECK_STEP = 1e-5

_grad_enabled = True


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

    __slots__ = ("data", "grad", "requires_grad", "op", "_edges")

    def __init__(self, data, requires_grad=False, *, op="leaf", edges=()):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if arr.ndim != 4:
            raise ShapeError(f"tensors are rank-4, got shape {arr.shape}")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self.op = op
        self._edges = edges if self.requires_grad else ()

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


def _node(data, op, *edges):
    """The output of ``op``.  Each edge is ``(input, vjp)``, where ``vjp(g)``
    maps the output's gradient to that input's share; only edges into
    inputs that require gradients are kept, and ``backward`` alone applies
    them."""
    live = tuple(e for e in edges if e[0].requires_grad)
    if _grad_enabled and live:
        return Tensor(data, requires_grad=True, op=op, edges=live)
    return Tensor(data, requires_grad=False, op=op)


def _joint_edges(grads, *inputs):
    """Edges into ``inputs`` whose VJPs share one pass: ``grads(g)`` returns
    every input's share, in input order.  backward calls a node's VJPs one
    after another with one gradient, so the first call computes all the
    shares and each edge takes its own."""
    shares = {}

    def take(i, g):
        if i not in shares:
            shares.update(enumerate(grads(g)))
        return shares.pop(i)

    return tuple((t, lambda g, i=i: take(i, g)) for i, t in enumerate(inputs))


def add(a, b):
    _check_same(a, b, "add")
    return _node(a.data + b.data, "add", (a, lambda g: g), (b, lambda g: g))


def sub(a, b):
    _check_same(a, b, "sub")
    return _node(a.data - b.data, "sub", (a, lambda g: g), (b, lambda g: -g))


def mul(a, b):
    _check_same(a, b, "mul")
    return _node(a.data * b.data, "mul",
                 (a, lambda g: g * b.data), (b, lambda g: g * a.data))


def scale(a, s):
    s = np.asarray(float(s), dtype=a.data.dtype)
    return _node(a.data * s, "scale", (a, lambda g: g * s))


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
    stops = np.cumsum([t.shape[1] for t in tensors]).tolist()
    edges = [(t, lambda g, lo=stop - t.shape[1], hi=stop: g[:, lo:hi])
             for t, stop in zip(tensors, stops)]
    return _node(np.concatenate([t.data for t in tensors], axis=1), "concat", *edges)


def _window(a, index, op):
    """a[index] as a node; its gradient scatters back into zeros of a's shape."""
    def vjp(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return full

    return _node(a.data[index].copy(), op, (a, vjp))


def slice_channels(a, start, stop):
    if not (0 <= start < stop <= a.shape[1]):
        raise ShapeError(f"slice_channels: [{start}:{stop}] out of range for {a.shape[1]} channels")
    return _window(a, np.s_[:, start:stop], "slice_ch")


def crop_spatial(a, h0, h1, w0, w1):
    n, c, h, w = a.shape
    if not (0 <= h0 < h1 <= h and 0 <= w0 < w1 <= w):
        raise ShapeError(f"crop_spatial: window [{h0}:{h1},{w0}:{w1}] out of range for {a.shape}")
    return _window(a, np.s_[:, :, h0:h1, w0:w1], "crop")


def sum_all(a):
    out = np.asarray(a.data.sum(), dtype=a.data.dtype).reshape(1, 1, 1, 1)
    return _node(out, "sum", (a, lambda g: np.full_like(a.data, g.reshape(()))))


def mean_all(a):
    return scale(sum_all(a), 1.0 / a.size)


def _erf_taylor():
    """Row n holds erf^(n)(c) / n! at each centre, from erf^(n+1)(c) =
    2/sqrt(pi) (-1)^n H_n(c) e^(-c^2) and H_(n+1) = 2c H_n - 2n H_(n-1)."""
    c, slope = np.arange(25) / 4.0, 2.0 / math.sqrt(math.pi) * _EXP_AT
    rows, h = [_ERF_AT, slope], [np.ones(25), 2.0 * c]
    for n in range(1, ERF_DEGREE):
        rows.append((-1) ** n * slope * h[n] / math.factorial(n + 1))
        h.append(2.0 * c * h[n] - 2.0 * n * h[n - 1])
    return np.array(rows)


_ERF_TAYLOR = _erf_taylor()


def erf(x):
    """erf of a float array in its dtype, from +, -, *, / and floor alone, so
    every host builds the same coder tables: on |x| <= 6 the float64 Taylor
    polynomial about the nearest k/4, erf(6) = 1 beyond; nan and -0.0 stay."""
    flat, out = x.reshape(-1), np.empty(x.shape, x.dtype)
    for i in range(0, flat.size, ERF_BLOCK):
        t = np.minimum(np.abs(flat[i:i + ERF_BLOCK], dtype=np.float64), 6.0)
        k = np.floor(np.fmin(t, 6.0) * 4.0 + 0.5).astype(np.intp)  # fmin: a nan gets k = 24, d = nan
        coef = np.take(_ERF_TAYLOR, k, axis=1)
        p, d = coef[-1], t - k * 0.25
        for row in coef[-2::-1]:
            p *= d
            p += row
        out.reshape(-1)[i:i + ERF_BLOCK] = np.copysign(p, flat[i:i + ERF_BLOCK])
    return out


def backward(loss):
    """Reverse-mode sweep from a scalar loss.

    Populates ``.grad`` on every tensor reachable from ``loss`` that has
    ``requires_grad`` set.  Gradients accumulate, so set ``.grad`` to None
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
        for inp, _ in node._edges:
            if id(inp) not in seen:
                stack.append((inp, False))

    loss._accum(np.ones_like(loss.data))
    for node in reversed(topo):
        for inp, vjp in node._edges:
            inp._accum(vjp(node.grad))


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
        t.grad = None
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
