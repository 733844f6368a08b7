"""Neural building blocks: convolutions, GDN, PReLU, masked convolutions,
and declarative network specs with parameter stores.

Convolutions use "same"-style zero padding of (k-1)//2 so a stride-s layer
maps height H to ceil(H/s), and the transposed layer maps H to H*s; an
encoder followed by its mirrored decoder therefore restores the input size
whenever H and W are divisible by the total stride.  Weights are laid out
[out_ch, in_ch, k, k] for conv2d and [in_ch, out_ch, k, k] for tconv2d, so
the same array describes a map and its adjoint.
"""

from __future__ import annotations

import contextvars
import functools
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .tensor import Tensor

GDN_BETA_MIN = 1e-6
# Hidden width of the shallow gd/gs feature transforms.
FEATURE_HIDDEN = 16


# ---------------------------------------------------------------------------
# convolution: one column builder, one GEMM per band of rows
# ---------------------------------------------------------------------------
#
# A stride-s layer links a big grid (the conv input, the tconv output) to a
# small grid of ceil(H/s) x ceil(W/s) positions.  Every pass runs through
# one column builder (Chellapilla, Puri & Simard 2006): for a band of output
# rows it copies the padded input into columns[(c, t), (n, i, j)], every
# tap t of every channel c, and the band is one GEMM with the weight matrix.
#
# The gather (conv forward, tconv input gradient) correlates the big grid
# with the [out, in*k*k] weight at stride s; the weight gradient sums over
# the bands a GEMM of the same columns with the small grid.  The transposed
# pass (tconv forward, conv input gradient) is a sub-pixel gather (Shi et
# al. 2016): output phase (ry, rx) of the big grid is a stride-1 correlation
# of the small grid with the flipped sub-kernel w[:, :, ry::s, rx::s],
# zero-filled to m = ceil(k/s) taps per axis.  The s*s sub-kernels are
# stacked into one [s*s*c, o*m*m] matrix, so one GEMM per band serves all
# phases; each phase's block is copied into the phase-strided view of the
# output.
# A causal mask zeroes the weight's taps past the first ``taps`` in raster
# order, and the same taps of the weight gradient; the columns keep all
# taps, so a masked conv is bit for bit the conv with the masked weight.
#
# No zero-padded copy of the whole input is made.  The columns read a slab
# buffer of padded rows, sized from BAND_CELLS (and at least one band's
# k + (rows-1)*s rows), whose border columns stay zero.  When a band needs
# rows past the slab, the k - s rows it shares with the band before are
# carried to the slab's front and the next input rows are read after them,
# so each input row is read once, after every band of the earlier fills
# has returned.  A band copies its columns from the slab alone.  A
# stride-1 gather that keeps the channel count may therefore write each
# band's output over its own input: band i0:i1 writes rows i0:i1, and the
# rows read after it start at i1 + (k-1)//2.  Network does so under
# no_grad for the intermediates it owns, never for its caller's input.

# Cells of one band of the column buffer: 1 MB in float32, so the GEMM
# reads the columns from cache right after they are written.  Bands of
# 2**22 cells made the gather of the gd/gs layers at 512x512 2.5 to 6 times
# slower, and that of the 3->32 first encoder layer at 1088x1920 1.5 times.
BAND_CELLS = 1 << 18

# Whole bands run concurrently on WORKERS threads, the caller's and those
# of a pool; numpy leaves the GIL in the column copy, the GEMM and the
# elementwise band work.  A band keeps its rows, its shape and its one
# GEMM, so no byte depends on WORKERS: a GEMM split by rows or columns
# gives other float32 bits under some OpenBLAS kernels (Haswell,
# SkylakeX), while an unsplit GEMM of one shape gives the same bits in any
# thread and at any buffer offset.  A pass uses the pool only when it
# spans at least two bands per worker, so small passes (the 32x32
# training steps) stay on the caller's thread.  BLAS itself should run on
# one thread beside the pool.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# (pid, executor), made at first use; a forked child makes its own.  A
# pass submits workers - 1 tasks, so it runs on at most WORKERS threads.
_pool = None


def _workers(bands):
    """The threads a pass of ``bands`` bands runs on."""
    return WORKERS if WORKERS > 1 and bands >= 2 * WORKERS else 1


def _run(band, spans, workers):
    """band(t, span) for each of ``spans``: in order on this thread (t = 0)
    when ``workers`` is 1 or there is one span, else taken in order from
    one queue by this thread and workers - 1 tasks on the pool (t = 1,
    2, ...), each in a copy of the caller's context (numpy keeps its error
    state there), so a thread that runs slower takes fewer spans.
    Returns, or raises a band's error, once every thread is done."""
    if workers == 1 or len(spans) < 2:
        for span in spans:
            band(0, span)
        return
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        # imported with the first pool: a process that never pools (the
        # 32x32 training steps) does not load concurrent.futures
        from concurrent.futures import ThreadPoolExecutor
        _pool = (os.getpid(), ThreadPoolExecutor())
    todo = deque(spans)

    def drain(t):
        while todo:
            try:
                span = todo.popleft()
            except IndexError:
                return
            band(t, span)

    futures = [_pool[1].submit(contextvars.copy_context().run, drain, t) for t in range(1, workers)]
    try:
        drain(0)
    finally:
        for f in futures:
            f.exception()  # waits for the thread without raising
    for f in futures:
        f.result()


def _columns(a, before, k, stride, oh, ow, band, pooled=True):
    """Call band(i0, i1, cols) for each band of output rows i0:i1, with
    cols the [c*k*k, n*(i1-i0)*ow] columns of ``a`` padded by ``before``:
    row (ch, ki*k + kj) holds the input that tap (ki, kj) of channel ch
    meets at output position (n, i, j).  The bands that read one fill of
    the slab run in order, or, when ``pooled`` and the pass spans enough
    bands, on the pool (see _run); each thread reuses one column buffer.
    Returns once every band has returned."""
    n, c, h, w = a.shape
    rows = min(oh, max(1, BAND_CELLS // (c * k * k * n * ow)))
    ph, pw = (oh - 1) * stride + k, (ow - 1) * stride + k
    # padded rows base:base+filled, zero outside ``a``; a column of
    # ``before`` zeros on the left, up to pw on the right
    slab = np.zeros((n, c, min(ph, max((rows - 1) * stride + k, BAND_CELLS // (n * c * pw))), pw),
                    dtype=a.dtype)
    # [c, k, k, n, i, ow] windows of the slab, every s-th per axis; the
    # ndarray constructor checks them against the slab's size and costs
    # 3 us less per call than as_strided, which tells at 32x32
    sn, sc, sh, sw = slab.strides
    win = np.ndarray((c, k, k, n, (slab.shape[2] - k) // stride + 1, ow), a.dtype, slab, 0,
                     (sc, sh, sw, sn, sh * stride, sw * stride))
    win.flags.writeable = False
    cw = min(w, pw - before)
    spans = range(0, oh, rows)
    workers = _workers(len(spans)) if pooled else 1
    bufs = np.empty((workers, c * k * k * n * rows * ow), dtype=a.dtype)

    def copy(t, span):
        i0, i1, j = span
        cols = bufs[t, :c * k * k * n * (i1 - i0) * ow].reshape(c, k, k, n, i1 - i0, ow)
        cols[...] = win[..., j:j + i1 - i0, :]
        band(i0, i1, cols.reshape(c * k * k, -1))

    base = filled = 0
    fill = []
    for i0 in spans:
        i1 = min(i0 + rows, oh)
        top, bottom = i0 * stride, (i1 - 1) * stride + k
        if bottom > base + filled:
            if fill:
                _run(copy, fill, workers)
                fill = []
            # carry the rows this band shares with the last to the front,
            # then read the rows after them; rows above ``a`` occur only in
            # the first fill, while the slab is still zero
            kept = max(0, base + filled - top)
            slab[:, :, :kept] = slab[:, :, filled - kept:filled]
            base, filled = top, min(ph - top, slab.shape[2])
            r0 = base + kept - before
            v0 = max(r0, 0)
            v1 = max(min(base + filled - before, h), v0)
            fresh = slab[:, :, kept:filled]
            fresh[:, :, v0 - r0:v1 - r0, before:before + cw] = a[:, :, v0:v1, :cw]
            fresh[:, :, v1 - r0:] = 0
        fill.append((i0, i1, (top - base) // stride))
    _run(copy, fill, workers)


def _gemm(a, before, wm, k, stride, out):
    """Fill ``out``, viewed [n, c, oh, s, ow, s], band by band: element
    (n, c, i, ry, j, rx) is row (ry, rx, c) of ``wm`` times column (n, i, j).
    Each phase (ry, rx) of a band is written as one [c, n, rows, ow] block."""
    n, c, oh, s, ow, _ = out.shape
    phases = out.transpose(3, 5, 1, 0, 2, 4)

    def band(i0, i1, cols):
        prod = np.dot(wm, cols).reshape(s, s, c, n, i1 - i0, ow)
        for ry in range(s):
            for rx in range(s):
                phases[ry, rx, :, :, i0:i1] = prod[ry, rx]

    _columns(a, before, k, stride, oh, ow, band)


def _gather(big, w, stride, taps, out=None):
    n, _, h, ww = big.shape
    o, c, k, _ = w.shape
    oh, ow = (h - 1) // stride + 1, (ww - 1) // stride + 1
    wm = w.reshape(o, c, k * k)
    if taps < k * k:
        wm = wm.copy()
        wm[:, :, taps:] = 0
    if out is None:
        out = np.empty((n, o, oh, ow), dtype=big.dtype)
    _gemm(big, (k - 1) // 2, wm.reshape(o, c * k * k), k, stride, out[:, :, :, None, :, None])
    return out


@functools.lru_cache(maxsize=None)
def _phase_taps(k, s):
    """[s, s, m, m] raster tap index of the flipped sub-kernels: phase
    (ry, rx) meets at (u, v) tap (ry + s*(m-1-u), rx + s*(m-1-v)), or the
    zero tap k*k past the kernel's edge."""
    t = np.arange(s)[:, None] + s * np.arange(-(-k // s) - 1, -1, -1)
    ki, kj = t[:, None, :, None], t[None, :, None, :]
    return np.where((ki < k) & (kj < k), ki * k + kj, k * k)


def _transposed(small, w, stride, taps, h, ww):
    o, c, k, _ = w.shape
    s, p, m = stride, (k - 1) // 2, -(-k // stride)
    # big row y is row q = (y + p)//s - p//s < qh of phase (y + p) % s, and
    # meets small rows q + p//s - m + 1 .. q + p//s
    qh, qw = (p + h - 1) // s - p // s + 1, (p + ww - 1) // s - p // s + 1
    wz = np.zeros((k * k + 1, c, o), dtype=w.dtype)
    wz[:taps] = w.reshape(o, c, k * k)[:, :, :taps].T
    wm = wz[_phase_taps(k, s)].transpose(0, 1, 4, 5, 2, 3).reshape(s * s * c, o * m * m)
    full = np.empty((small.shape[0], c, qh * s, qw * s), dtype=small.dtype)
    _gemm(small, m - 1 - p // s, wm, m, 1, full.reshape(-1, c, qh, s, qw, s))
    return full[:, :, p % s:p % s + h, p % s:p % s + ww]


def _weight_grad(big, small, stride, taps, w_shape):
    o, c, k, _ = w_shape
    n, _, oh, ow = small.shape
    dw = np.zeros((c * k * k, o), dtype=small.dtype)

    def band(i0, i1, cols):
        # [c*k*k,n*rows*ow] x [n*rows*ow,o]: with the small grid channels
        # last, this product ran faster than its transpose [o,.] x [.,c*k*k]
        np.add(dw, np.dot(cols, small[:, :, i0:i1].transpose(0, 2, 3, 1).reshape(-1, o)), out=dw)

    # the bands' sum keeps its order on this thread
    _columns(big, (k - 1) // 2, k, stride, oh, ow, band, pooled=False)
    dw = dw.T.reshape(o, c, k * k)
    dw[:, :, taps:] = 0
    return dw.reshape(w_shape)


def _conv(x, weight, bias, stride, transposed, op, mask="", out=None):
    """The autodiff node of every convolution.  Weights are [out, in, k, k],
    or [in, out, k, k] when ``transposed``; mask "A" walks the k*k//2 taps
    before the centre, "B" the centre as well, "" all k*k.  A gather writes
    into ``out`` when given, which may be ``x.data`` itself for stride 1."""
    w = weight.data
    if w.ndim != 4 or w.shape[2] != w.shape[3]:
        raise ShapeError(f"{op}: bad weight shape {weight.shape}")
    if w.shape[2] % 2 == 0:
        raise ShapeError(f"{op}: kernel {w.shape[2]} must be odd for symmetric padding")
    if stride < 1:
        raise ContractError(f"{op}: stride must be at least 1, got {stride}")
    cin, cout = (w.shape[0], w.shape[1]) if transposed else (w.shape[1], w.shape[0])
    if x.shape[1] != cin:
        raise ShapeError(f"{op}: input has {x.shape[1]} channels, weight expects {cin}")
    k = w.shape[2]
    taps = k * k // 2 + (mask == "B") if mask else k * k
    if transposed:
        out = _transposed(x.data, w, stride, taps, x.shape[2] * stride, x.shape[3] * stride)
    else:
        out = _gather(x.data, w, stride, taps, out)
    if bias is not None:
        if bias.shape != (1, cout, 1, 1):
            raise ShapeError(f"{op}: bias shape {bias.shape} != (1,{cout},1,1)")
        out += bias.data

    # The VJPs read weight.data when they run, not at build time: a graph
    # kept alive past an optimizer step must not pin the replaced weights.
    def x_vjp(g):
        if transposed:
            return _gather(g, weight.data, stride, taps)
        return _transposed(g, weight.data, stride, taps, *x.shape[2:])

    def weight_vjp(g):
        big, small = (g, x.data) if transposed else (x.data, g)
        return _weight_grad(big, small, stride, taps, weight.data.shape)

    edges = [(x, x_vjp), (weight, weight_vjp)]
    if bias is not None:
        edges.append((bias, lambda g: g.sum(axis=(0, 2, 3)).reshape(bias.shape)))
    return T._node(out, op, *edges)


def conv2d(x, weight, bias=None, stride=1):
    """2-D convolution, weight [out_ch, in_ch, k, k], bias (1, out_ch, 1, 1)."""
    return _conv(x, weight, bias, stride, False, "conv2d")


def tconv2d(x, weight, bias=None, stride=1):
    """Transposed convolution (adjoint of conv2d), weight [in_ch, out_ch, k, k].

    Output spatial size is exactly input * stride.
    """
    return _conv(x, weight, bias, stride, True, "tconv2d")


def prelu(x, slope):
    """Channelwise parametric ReLU; slope has shape (1, C, 1, 1)."""
    if slope.shape != (1, x.shape[1], 1, 1):
        raise ShapeError(f"prelu: slope shape {slope.shape} != (1,{x.shape[1]},1,1)")
    pos = x.data >= 0
    out = np.where(pos, x.data, slope.data * x.data)

    def slope_vjp(g):
        contrib = np.where(pos, 0.0, x.data * g)
        return contrib.sum(axis=(0, 2, 3)).reshape(slope.shape)

    return T._node(out, "prelu", (x, lambda g: np.where(pos, g, slope.data * g)),
                   (slope, slope_vjp))


def _bias_prelu(a, bias, slope):
    """``a`` plus ``bias``, then PReLU with ``slope`` as max(b, 0) +
    slope * min(b, 0), in place; either may be None.  That form equals the
    graph op's np.where except for the sign of a zero.  Each image runs in
    bands of rows that with their one temporary fill BAND_CELLS cells."""
    n, c, h, w = a.shape
    rows = max(1, BAND_CELLS // (2 * c * w))
    spans = [(b, r0) for b in range(n) for r0 in range(0, h, rows)]

    def run(t, span):
        band = a[span[0]:span[0] + 1, :, span[1]:span[1] + rows]
        if bias is not None:
            band += bias
        if slope is not None:
            neg = np.minimum(band, 0)
            neg *= slope
            np.maximum(band, 0, out=band)
            band += neg

    _run(run, spans, _workers(len(spans)))


def _gdn_norms(x, gamma, beta, fn, pooled=True):
    """Call fn(cols, band, sq, s) for each band of pixels of each image of
    ``x``: cols indexes the band in an [n, c, h*w] view, band is that
    [c, p] slice of ``x``, sq = band**2 and s = sqrt(beta + gamma @ sq).
    sq and s share one buffer of at most BAND_CELLS cells per thread, which
    its bands reuse, so the GEMM reads sq from cache right after it is
    written.  The bands run in order, or, when ``pooled`` and there are
    enough of them, on the pool."""
    n, c = x.shape[:2]
    flat = x.reshape(n, c, -1)
    hw = flat.shape[2]
    step = max(1, min(hw, BAND_CELLS // (2 * c)))
    spans = [(b, p0) for b in range(n) for p0 in range(0, hw, step)]
    workers = _workers(len(spans)) if pooled else 1
    bufs = np.empty((workers, 2 * c * step), dtype=x.dtype)

    def norms(t, span):
        cols = np.s_[span[0], :, span[1]:span[1] + step]
        band = flat[cols]
        cells = band.size
        sq, s = bufs[t, :cells].reshape(band.shape), bufs[t, cells:2 * cells].reshape(band.shape)
        np.multiply(band, band, out=sq)
        np.dot(gamma, sq, out=s)
        s += beta
        np.sqrt(s, out=s)
        fn(cols, band, sq, s)

    _run(norms, spans, workers)


def gdn(x, beta_raw, gamma_raw, inverse=False):
    """Generalized divisive normalization (Balle, Laparra & Simoncelli 2016).

        y_i = x_i * n_i ** p,   n_i = beta_i + sum_j gamma_ij * x_j^2

    with p = -1/2, or +1/2 for the inverse form.  Positivity is built in by
    reparameterization: beta = beta_raw^2 + 1e-6, gamma = gamma_raw^2,
    with beta_raw shaped (1, C, 1, 1) and gamma_raw shaped (C, C, 1, 1).

    One autodiff node that walks each image's pixels in bands (see
    _gdn_norms), so no full-size temporary is made.  The VJP recomputes n
    band by band: with t = p * g * y / n it is dx = g * n^p + 2x * (gamma^T t),
    dbeta = sum t and dgamma = sum t (x^2)^T, chained through the raw
    parameters; one pass serves all three inputs.
    """
    return _gdn(x, beta_raw, gamma_raw, inverse, np.empty(x.shape, dtype=x.dtype))


def _gdn(x, beta_raw, gamma_raw, inverse, out):
    """gdn written into ``out``, a C-contiguous array of x's shape that may
    be ``x.data`` itself: each band of pixels is read before it is written."""
    c = x.shape[1]
    if beta_raw.shape != (1, c, 1, 1):
        raise ShapeError(f"gdn: beta shape {beta_raw.shape} != (1,{c},1,1)")
    if gamma_raw.shape != (c, c, 1, 1):
        raise ShapeError(f"gdn: gamma shape {gamma_raw.shape} != ({c},{c},1,1)")
    if not x.dtype == beta_raw.dtype == gamma_raw.dtype:
        raise ContractError(f"gdn: dtypes differ {x.dtype} {beta_raw.dtype} {gamma_raw.dtype}")
    br, gr = beta_raw.data.reshape(c, 1), gamma_raw.data.reshape(c, c)
    beta, gamma = br * br + x.dtype.type(GDN_BETA_MIN), gr * gr
    flat = out.reshape(x.shape[0], c, -1)
    scale = np.multiply if inverse else np.divide
    _gdn_norms(x.data, gamma, beta, lambda cols, band, sq, s: scale(band, s, out=flat[cols]))

    def grads(g):
        """(dx, dbeta_raw, dgamma_raw) of upstream gradient ``g``."""
        dx = np.empty(x.shape, dtype=x.dtype)
        dflat, gflat = dx.reshape(flat.shape), g.reshape(flat.shape)
        dbeta, dgamma = np.zeros_like(beta), np.zeros_like(gamma)

        def band_grads(cols, band, sq, s):
            gb = gflat[cols]
            if inverse:
                d, t = gb * s, 0.5 * gb * band / s
            else:
                d = gb / s
                t = -0.5 * d * band / (s * s)
            np.add(dbeta, t.sum(axis=1, keepdims=True), out=dbeta)
            np.add(dgamma, np.dot(t, sq.T), out=dgamma)
            dflat[cols] = d + 2 * band * np.dot(gamma.T, t)

        # dbeta and dgamma sum over the bands in order on this thread
        _gdn_norms(x.data, gamma, beta, band_grads, pooled=False)
        return dx, (2 * br * dbeta).reshape(beta_raw.shape), (2 * gr * dgamma).reshape(gamma_raw.shape)

    return T._node(out, "gdn", *T._joint_edges(grads, x, beta_raw, gamma_raw))


def masked_conv2d(x, weight, bias=None, kind="A"):
    """Stride-1 convolution over the kernel taps before the centre in raster
    order (mask A) or up to and including it (mask B), so output at a
    position never sees that position's input (A) or sees at most the
    already-produced positions plus itself (B)."""
    if kind not in ("A", "B"):
        raise ContractError(f"mask kind must be 'A' or 'B', got {kind!r}")
    return _conv(x, weight, bias, 1, False, "masked_conv2d", kind)


# ---------------------------------------------------------------------------
# network specs and parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvSpec:
    """One layer: a (transposed) convolution plus its activation."""
    in_ch: int
    out_ch: int
    kernel: int = 5
    stride: int = 1
    transposed: bool = False
    activation: str = "none"  # none | gdn | igdn | prelu
    mask: str = ""            # "" | "A" | "B" (mask implies stride 1)

    def __post_init__(self):
        if min(self.in_ch, self.out_ch, self.kernel, self.stride) < 1:
            raise ContractError(f"non-positive field in {self}")
        if self.kernel % 2 == 0:
            raise ContractError(f"kernel must be odd for symmetric padding: {self}")
        if self.activation not in ("none", "gdn", "igdn", "prelu"):
            raise ContractError(f"unknown activation {self.activation!r}")
        if self.mask not in ("", "A", "B"):
            raise ContractError(f"unknown mask {self.mask!r}")
        if self.mask and (self.transposed or self.stride != 1):
            raise ContractError("masked layers must be plain stride-1 convolutions")

    def param_shapes(self):
        """leaf -> shape of each learnable array, in store order."""
        i, o, k = self.in_ch, self.out_ch, self.kernel
        shapes = {"w": (i, o, k, k) if self.transposed else (o, i, k, k), "b": (1, o, 1, 1)}
        if self.activation == "prelu":
            shapes["slope"] = (1, o, 1, 1)
        elif self.activation in ("gdn", "igdn"):
            shapes.update(beta=(1, o, 1, 1), gamma=(o, o, 1, 1))
        return shapes


@dataclass(frozen=True)
class NetworkSpec:
    """An ordered conv stack with a role tag for bookkeeping."""
    layers: tuple
    role: str = ""

    def __post_init__(self):
        for a, b in zip(self.layers[:-1], self.layers[1:]):
            if a.out_ch != b.in_ch:
                raise ContractError(f"channel mismatch {a.out_ch} -> {b.in_ch} in role {self.role!r}")

    def param_shapes(self, prefix):
        """Full parameter name -> shape, in store order."""
        return {f"{prefix}.{i}.{leaf}": shape for i, lay in enumerate(self.layers)
                for leaf, shape in lay.param_shapes().items()}

    def param_count(self):
        return sum(int(np.prod(s)) for s in self.param_shapes("").values())

    def out_size(self, h):
        """Output size for input size h: ceil(h/s) per conv, h*s per transposed conv."""
        for lay in self.layers:
            h = h * lay.stride if lay.transposed else -(-h // lay.stride)
        return h


def check_shapes(want, arrays):
    """Raise unless ``arrays`` holds exactly the names of ``want``, each at its shape."""
    missing, extra = sorted(set(want) - set(arrays)), sorted(set(arrays) - set(want))
    if missing or extra:
        raise ContractError(f"missing parameters {missing!r}, unexpected {extra!r}")
    for name, shape in want.items():
        if np.shape(arrays[name]) != shape:
            raise ShapeError(f"parameter {name!r}: shape {np.shape(arrays[name])} != {shape}")


class ParamStore:
    """Ordered name -> Tensor map holding every learnable array of a model."""

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype).type
        self._params = {}

    def add(self, name, array):
        if name in self._params:
            raise ContractError(f"duplicate parameter {name!r}")
        t = Tensor(np.array(array, dtype=self.dtype), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name):
        return self._params[name]

    def items(self):
        return self._params.items()

    def total_params(self):
        return sum(t.size for t in self._params.values())

    def zero_grads(self):
        for t in self._params.values():
            t.grad = None

    def arrays(self):
        """name -> raw array view, for checkpointing."""
        return {n: t.data for n, t in self._params.items()}

    def load_arrays(self, arrays):
        check_shapes({n: t.shape for n, t in self._params.items()}, arrays)
        for n, t in self._params.items():
            t.data = np.asarray(arrays[n]).astype(t.data.dtype, copy=True)


def _init_weight(rng, shape, fan_in):
    return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)


# The exact grid (Balle, Johnston & Minnen 2019): weights and PReLU slopes
# are multiples of 2^-GRID_WEIGHT_BITS, biases of 2^-(GRID_WEIGHT_BITS +
# GRID_ACT_BITS) and every layer's output of 2^-GRID_ACT_BITS.  Every product
# of a weight and an activation then lies on the 2^-20 grid, and while every
# partial sum stays below 2^53 grid steps (2^33 in value) float64 holds each
# sum exactly, so no BLAS kernel, thread count, band split or batch shape
# can change a bit of a layer's output.
GRID_WEIGHT_BITS = 12
GRID_ACT_BITS = 8


def to_grid(a, bits):
    """``a`` in float64, rounded to the nearest multiple of 2^-bits (ties to
    even): exact scalings by powers of two around one rounding."""
    return np.rint(np.asarray(a, dtype=np.float64) * 2.0 ** bits) * 2.0 ** -bits


class Network:
    """A conv stack bound to its parameters; call it on a rank-4 tensor."""

    def __init__(self, spec, params, prefix):
        self.spec = spec
        self.params = params
        self.prefix = prefix

    def _p(self, i, leaf):
        return self.params[f"{self.prefix}.{i}.{leaf}"]

    @staticmethod
    def _conv(lay, x, w, b):
        if lay.mask:
            return masked_conv2d(x, w, bias=b, kind=lay.mask)
        if lay.transposed:
            return tconv2d(x, w, bias=b, stride=lay.stride)
        return conv2d(x, w, bias=b, stride=lay.stride)

    def __call__(self, x):
        """The stack on ``x``.  Under no_grad each layer holds about one
        feature map: bias, PReLU and GDN run in place over the conv's fresh
        output, and a plain stride-1 conv that keeps the channel count
        writes over its input when an earlier layer of the stack made it."""
        free = not T._grad_enabled
        for i, lay in enumerate(self.spec.layers):
            w, b = self._p(i, "w"), self._p(i, "b")
            slope = self._p(i, "slope") if lay.activation == "prelu" else None
            if free:
                over = i > 0 and lay.stride == 1 and lay.in_ch == lay.out_ch \
                    and not (lay.mask or lay.transposed)
                x = _conv(x, w, None, lay.stride, lay.transposed, f"{self.prefix}.{i}", lay.mask,
                          x.data if over else None)
                _bias_prelu(x.data, b.data, None if slope is None else slope.data)
            else:
                x = self._conv(lay, x, w, b)
                if slope is not None:
                    x = prelu(x, slope)
            if lay.activation in ("gdn", "igdn"):
                norm = (x, self._p(i, "beta"), self._p(i, "gamma"), lay.activation == "igdn")
                x = _gdn(*norm, x.data) if free and x.data.flags.c_contiguous else gdn(*norm)
        return x

    def grid_layer(self, i):
        """Layer i's weight, bias and PReLU slope (None without PReLU) on
        the exact grid, in the shapes of the parameters."""
        wb = GRID_WEIGHT_BITS
        slope = self._p(i, "slope").data if self.spec.layers[i].activation == "prelu" else None
        return (to_grid(self._p(i, "w").data, wb), to_grid(self._p(i, "b").data, wb + GRID_ACT_BITS),
                None if slope is None else to_grid(slope, wb))

    def grid(self, x):
        """The stack on the exact grid: a float64 array in, the last
        layer's float64 output out, no graph.  ``x`` is rounded to the
        activation grid first.  Conv and PReLU layers only: the hyper
        decoder and the context net have no GDN."""
        with T.no_grad():
            a = to_grid(x, GRID_ACT_BITS)
            for i, lay in enumerate(self.spec.layers):
                w, b, slope = self.grid_layer(i)
                a = to_grid(self._conv(lay, Tensor(a), Tensor(w), Tensor(b)).data, GRID_ACT_BITS)
                if slope is not None:
                    _bias_prelu(a, None, slope)
                    a = to_grid(a, GRID_ACT_BITS)
        return a


def make_network(spec, params, prefix, rng=None, init="random"):
    """Create parameters for ``spec`` under ``prefix`` and return the bound
    Network.

    init 'random' draws fan-in scaled normals.  The identity inits make the
    stack compute first_half - second_half ('identity-difference', used to
    start a generalized difference transform as a plain difference) or
    first_half + second_half ('identity-sum', used to start the synthesis
    as plain addition) of its input channels, exactly: with C = half the
    first layer's inputs, every layer carries channels 0..C-1 through its
    centre tap and the first layer also adds -1 or +1 times channel C + c.
    Identity inits require PReLU activations and every layer at least C
    channels wide.
    """
    if init == "random" and rng is None:
        raise ContractError("random init needs an rng")
    if init not in ("random", "identity-difference", "identity-sum"):
        raise ContractError(f"unknown init {init!r}")
    for i, lay in enumerate(spec.layers):
        shapes = lay.param_shapes()
        if init == "random":
            w = _init_weight(rng, shapes["w"], lay.in_ch * lay.kernel * lay.kernel)
            slope = 0.25
        else:
            if lay.activation != "prelu":
                raise ContractError("identity inits require prelu activations")
            carried = spec.layers[0].in_ch // 2
            if lay.out_ch < carried:
                raise ContractError(f"layer {i} of {prefix!r} has {lay.out_ch} channels, "
                                    f"the identity init carries {carried}")
            w = np.zeros(shapes["w"])
            mid = lay.kernel // 2
            for c in range(carried):
                w[c, c, mid, mid] = 1.0
                if i == 0:
                    w[c, carried + c, mid, mid] = 1.0 if init == "identity-sum" else -1.0
            slope = 1.0
        value = {"w": w, "b": 0.0, "slope": slope, "beta": np.sqrt(1.0 - GDN_BETA_MIN),
                 "gamma": np.sqrt(0.1) * np.eye(lay.out_ch)[:, :, None, None]}
        for leaf, shape in shapes.items():
            params.add(f"{prefix}.{i}.{leaf}", np.broadcast_to(value[leaf], shape))
    return Network(spec, params, prefix)


# ---------------------------------------------------------------------------
# spec builders for the coder networks
# ---------------------------------------------------------------------------

def _chain(first, hidden, last, kernel, strides, transposed, act, role):
    """Layers first -> hidden -> ... -> last, one per stride, each followed
    by ``act`` but the last, which has none."""
    chans = [first] + [hidden] * (len(strides) - 1) + [last]
    return NetworkSpec(tuple(
        ConvSpec(chans[i], chans[i + 1], kernel, s, transposed,
                 act if i < len(strides) - 1 else "none")
        for i, s in enumerate(strides)), role=role)


def encoder_spec(in_ch, hidden, latent, kernel=5, strides=(2, 2, 2, 2)):
    """Analysis transform: stride-2 convs with GDN between, none after last."""
    return _chain(in_ch, hidden, latent, kernel, strides, False, "gdn", "encoder")


def decoder_spec(latent, hidden, out_ch, kernel=5, strides=(2, 2, 2, 2)):
    """Synthesis transform mirroring encoder_spec, with inverse GDN."""
    return _chain(latent, hidden, out_ch, kernel, strides[::-1], True, "igdn", "decoder")


def hyper_encoder_spec(latent, hidden, hyper_latent):
    return NetworkSpec((
        ConvSpec(latent, hidden, 3, 1, False, "prelu"),
        ConvSpec(hidden, hidden, 5, 2, False, "prelu"),
        ConvSpec(hidden, hyper_latent, 5, 2, False, "none"),
    ), role="hyper-encoder")


def hyper_decoder_spec(hyper_latent, hidden, latent):
    """Mirrors hyper_encoder_spec; emits 2*latent channels (mean, raw scale)."""
    return NetworkSpec((
        ConvSpec(hyper_latent, hidden, 5, 2, True, "prelu"),
        ConvSpec(hidden, hidden, 5, 2, True, "prelu"),
        ConvSpec(hidden, 2 * latent, 3, 1, False, "none"),
    ), role="hyper-decoder")


def context_spec(hyper_latent, hidden=16):
    """Causal context model over the hyper latent: mask-A then mask-B conv
    with ``hidden`` channels, then a 1x1 head emitting mean and raw scale."""
    return NetworkSpec((
        ConvSpec(hyper_latent, hidden, 5, 1, False, "prelu", mask="A"),
        ConvSpec(hidden, hidden, 5, 1, False, "prelu", mask="B"),
        ConvSpec(hidden, 2 * hyper_latent, 1, 1, False, "none"),
    ), role="context")


def feature_spec(in_ch, out_ch, kernel, role):
    """Shallow feature transform: three k x k PReLU convs at FEATURE_HIDDEN.
    Role 'gd' maps (x, prediction) to features, 'gs' maps (prediction,
    decoded) to a frame."""
    return NetworkSpec((
        ConvSpec(in_ch, FEATURE_HIDDEN, kernel, 1, False, "prelu"),
        ConvSpec(FEATURE_HIDDEN, FEATURE_HIDDEN, kernel, 1, False, "prelu"),
        ConvSpec(FEATURE_HIDDEN, out_ch, kernel, 1, False, "prelu"),
    ), role=role)


def pred_branch_spec(in_ch, width, kernel=5, strides=(2, 2, 2, 2)):
    """Prediction-side encoder used by the conditional-latent coder; all
    layers run at the output width."""
    return _chain(in_ch, width, width, kernel, strides, False, "prelu", "pred-branch")
