"""Quantization, discretized-Gaussian rate estimates, and the glue between
learned entropy parameters and the lane-interleaved rANS coder (``rans``).

Rates are measured against the discretized Gaussian

    p(v) = Phi((v - mu + 1/2) / sigma) - Phi((v - mu - 1/2) / sigma)

with p floored at 2^-16, so no element costs over 16 bits, and sigma =
SCALE_MIN + softplus(raw).  ``gaussian_bits`` is one graph node on the net
output, c channels of mean and c of raw scale, and the coder reads the
same arrays: each value is coded as its offset from its rounded mean under
one table of a fixed set, strictly increasing 2^16-grid CDFs over an
integer support plus one trailing escape bin, one per (scale, mean
fraction) point of a 64 x 8 grid.  The scale row is picked by comparing
the raw scale with fixed thresholds, so choosing a row evaluates no exp.
Offsets outside the support are sent as the escape symbol plus the raw
32-bit zigzag code of the offset at the payload's tail, so the coder is
total even when the model support is misjudged.  Both payloads of a
container run through the one rANS coder: the y payload in one pass, the
z payload one context wavefront at a time.

In coding, both nets that read the hyper-latent (the hyper decoder and the
context net) run on the exact grid of ``layers.Network.grid`` over z_hat
clamped to +-Z_CLAMP, at the encoder and the decoder alike, so the tables a
decoder picks do not depend on the host's BLAS kernel.  The encoder runs
the context net over the whole map; the decoder runs it one wavefront at
a time, only at the cells those positions read (_ContextMap), which on
the grid equals the full-map pass bit for bit.  The tables come from
committed constants and ``tensor.erf``, so no host libm shapes them.
"""

from __future__ import annotations

import math

import numpy as np

from . import layers as L
from . import rans
from . import tensor as T
from .errors import ContractError, NumericError, ShapeError
from .rans import CDF_TOTAL

SCALE_MIN = 0.11
PROB_FLOOR = 2.0 ** -16
# Python floats, so that float32 arrays stay float32 when multiplied by them.
_LN2 = math.log(2.0)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# A coder table has at most this many bins, escape included, so a decoder
# rejects a wider (patched) support before building any table.
MAX_TABLE_BINS = 1024
# Escaped values are sent as the raw 32-bit zigzag code of their offset.
ESCAPE_LIMIT = 1 << 31
# The table set's grid: np.geomspace(SCALE_MIN, 256, 64) written out exactly,
# and the bucket centres of the mean's fraction in (-0.5, 0.5).
TABLE_SCALES = np.array([float.fromhex(h) for h in """
    1.c28f5c28f5c29p-4 1.fd8f2837ff12ap-4 1.20245ef9396dep-3 1.45df8ca5aff36p-3 1.708b8ff98cb5bp-3
    1.a0ce0917714e4p-3 1.d7624847133a5p-3 1.0a8e127ee2a43p-2 1.2d759a0d689b3p-2 1.54ef34e78414ap-2
    1.81941aa46bd96p-2 1.b411930b6897ep-2 1.ed2b96a48a650p-2 1.16dfe3ada4c93p-1 1.3b64665db0b12p-1
    1.64b11069659abp-1 1.93662e3c7c2b4p-1 1.c83909d4f04f4p-1 1.01fb5534acfc7p+0 1.23c378199ba9fp+0
    1.49f80c36f4ff4p+0 1.752d5b97cf7f8p+0 1.a60b1b4562de3p+0 1.dd4ef636066b8p+0 1.0de7b6bc7affcp+1
    1.313f8c641bbdap+1 1.59382a1011efdp+1 1.866cb4519f528p+1 1.b98ca077cb5bfp+1 1.f35e5d9413ea0p+1
    1.1a612b56336c2p+2 1.3f5b2ce3e70b4p+2 1.692cb88555e41p+2 1.98781e690d1d7p+2 1.cdf4efd959496p+2
    1.053963dd4f05ep+3 1.276e382b0abf2p+3 1.4e1db954457e5p+3 1.79de0e83183c6p+3 1.ab590859eceffp+3
    1.e34eb410de861p+3 1.114c22710fe4ep+4 1.3515af8956693p+4 1.5d8ee8afb3b6cp+4 1.8b54e5a19c035p+4
    1.bf195037b092fp+4 1.f9a515f99e349p+4 1.1dedb9ff18f64p+5 1.435eb4754ff3bp+5 1.6db6cd382c11ap+5
    1.9d9a5eb485810p+5 1.d3c348d5bcfe6p+5 1.0881e13c4363ep+6 1.2b24c4ab26bcfp+6 1.5250be6407bf4p+6
    1.7e9dd8af256ccp+6 1.b0b8069044e99p+6 1.e961bf2cc5b42p+6 1.14bb784b37cd6p+7 1.38f82ab64d92cp+7
    1.61f39d227a7d1p+7 1.904ce0bf7c348p+7 1.c4b7db07f4919p+7 1p+8""".split()])
TABLE_MEANS = (np.arange(8) + 0.5) / 8 - 0.5
# Scale row s covers the raw scales in (RAW_EDGES[s-1], RAW_EDGES[s]]: the inverse
# softplus of the geometric midpoints between grid scales, on multiples of 2^-12.
RAW_EDGES = np.array([
    -20321, -15532, -13142, -11456, -10108, -8956, -7930, -6989, -6107, -5267, -4455, -3662, -2880,
    -2101, -1319, -527, 280, 1109, 1966, 2860, 3799, 4792, 5851, 6988, 8218, 9558, 11029, 12653,
    14457, 16471, 18726, 21263, 24120, 27345, 30989, 35107, 39764, 45030, 50986, 57721, 65339,
    73953, 83696, 94715, 107177, 121270, 137209, 155235, 175622, 198678, 224753, 254242, 287593,
    325312, 367969, 416212, 470773, 532478, 602263, 681186, 770444, 871390, 985554,
]) * 2.0 ** -L.GRID_WEIGHT_BITS
# The grid nets read the hyper-latent clamped to this range, which bounds
# their partial sums (tests/test_grid.py checks the bound against 2^53).
Z_CLAMP = 1024


def round_away(x):
    """Round half away from zero (2.5 -> 3, -2.5 -> -3), elementwise."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def quantize(t, mode, rng=None):
    """Quantize a tensor for training ('noise') or coding ('round').

    Noise mode adds U[-0.5, 0.5) drawn from ``rng`` and passes gradients
    through unchanged; round mode rounds half away from zero (gradients
    also pass straight through, though training only uses noise mode).
    """
    if mode == "noise":
        if rng is None:
            raise ContractError("noise quantization needs an rng")
        n = rng.uniform(-0.5, 0.5, size=t.shape).astype(t.data.dtype)
        out = t.data + n
    elif mode == "round":
        out = round_away(t.data)
    else:
        raise ContractError(f"unknown quantization mode {mode!r}")
    return T._node(out, f"quantize-{mode}", (t, lambda g: g))


def _normal_cdf(x):
    return 0.5 * (1.0 + T.erf(x * _INV_SQRT2))


def gaussian_bits(values, params):
    """Per-element rate estimate in bits as one graph node.

    ``params`` is the net output the coder reads: for ``values`` of c
    channels, c channels of means, then c of raw scales, each giving the
    scale SCALE_MIN + softplus(raw).  Differentiable w.r.t. both inputs;
    clamped elements (those at the 16-bit ceiling) pass no gradient.
    """
    n, c, h, w = values.shape
    if params.shape != (n, 2 * c, h, w):
        raise ShapeError(f"gaussian_bits: {values.shape} values but {params.shape} params")
    if values.dtype != params.dtype:
        raise ContractError(f"gaussian_bits: dtypes differ {values.dtype} {params.dtype}")
    if not np.all(np.isfinite(params.data)):
        raise NumericError("gaussian_bits: non-finite entropy parameters")
    f = values.dtype.type
    mean, raw = params.data[:, :c], params.data[:, c:]
    scale = np.logaddexp(0.0, raw).astype(values.dtype) + f(SCALE_MIN)
    centered = values.data - mean
    top, bottom = centered + f(0.5), centered + f(-0.5)
    hi, lo = top / scale, bottom / scale
    p = _normal_cdf(hi) - _normal_cdf(lo)
    clamped = np.maximum(p, f(PROB_FLOOR))

    def grads(g):
        """(dvalues, dparams), in the float order of the op-by-op chain."""
        dp = g * f(-1.0) / (clamped * f(_LN2)) * (p > PROB_FLOOR)
        pdf_hi, pdf_lo = ((_INV_SQRT_2PI * np.exp(-0.5 * x * x)).astype(f) for x in (hi, lo))
        dhi, dlo = dp * pdf_hi, -dp * pdf_lo
        dscale = -dhi * top / (scale * scale) + -dlo * bottom / (scale * scale)
        dcentered = dhi / scale + dlo / scale
        dparams = np.zeros_like(params.data)
        dparams[:, :c] -= dcentered
        dparams[:, c:] += dscale * (0.5 * (1.0 + np.tanh(0.5 * raw)))
        return dcentered, dparams

    return T._node(np.log2(clamped) * f(-1.0), "gaussian_bits",
                   *T._joint_edges(grads, values, params))


def _interval_probs(mean, scale, lo, hi):
    """Probabilities of integer bins lo..hi (inclusive) for each element.

    mean/scale are flat float arrays of length n; returns (n, hi-lo+1).
    """
    edges = np.arange(lo, hi + 2, dtype=np.float64) - 0.5
    z = (edges[None, :] - mean[:, None]) / scale[:, None]
    return np.diff(_normal_cdf(z), axis=1)


def _table_bins(lo, hi):
    """Bins of a coder table over support [lo, hi], escape included; raises
    before anything is allocated when there are more than MAX_TABLE_BINS."""
    if hi < lo:
        raise ContractError(f"empty support [{lo}, {hi}]")
    nbins = hi - lo + 2
    if nbins > MAX_TABLE_BINS:
        raise ContractError(f"support of {nbins} bins exceeds {MAX_TABLE_BINS}")
    return nbins


def build_cdfs(mean, scale, lo, hi):
    """Quantized coder tables for integer support [lo, hi] plus escape.

    Returns an int64 array of shape (n, hi-lo+3): n cumulative tables whose
    bins are all >= 1 and sum exactly to 2^16.  The final bin is the escape
    symbol, which takes the whole budget of a row with no mass inside the
    support.  Each table is a function of its own (mean, scale) and (lo, hi).
    """
    nbins = _table_bins(lo, hi)
    mean = np.asarray(mean, dtype=np.float64).reshape(-1)
    scale = np.asarray(scale, dtype=np.float64).reshape(-1)
    probs = _interval_probs(mean, scale, lo, hi)
    budget = CDF_TOTAL - nbins  # every bin gets a guaranteed single count
    p = np.concatenate([probs, np.zeros((probs.shape[0], 1))], axis=1)
    p = np.clip(p, 0.0, None)
    p[p.sum(axis=1) == 0.0, -1] = 1.0
    ideal = p / p.sum(axis=1, keepdims=True) * budget
    base = np.floor(ideal).astype(np.int64)
    short = budget - base.sum(axis=1)
    # largest-remainder rounding, ties broken by bin index (deterministic)
    rem = ideal - base
    order = np.argsort(-rem, axis=1, kind="stable")
    ranks = np.argsort(order, axis=1, kind="stable")
    base += ranks < short[:, None]
    freqs = base + 1
    cdfs = np.zeros((freqs.shape[0], nbins + 1), dtype=np.int64)
    np.cumsum(freqs, axis=1, out=cdfs[:, 1:])
    return cdfs


def _table_set(lo, hi):
    """One payload's tables: row s * 8 + m for TABLE_SCALES[s] and
    TABLE_MEANS[m].  The support is checked before build_cdfs is called."""
    _table_bins(lo, hi)
    return build_cdfs(np.tile(TABLE_MEANS, TABLE_SCALES.size),
                      np.repeat(TABLE_SCALES, TABLE_MEANS.size), lo, hi)


def _table_rows(mean, raw, count):
    """Each element's rounded mean (int64) and table-set row: the scale row
    whose RAW_EDGES interval holds the raw scale, and the bucket of the
    mean's fraction.  Means are clipped first, so a value of 0 stays
    escapable and nothing wraps."""
    mean = np.asarray(mean, dtype=np.float64).reshape(-1)
    raw = np.asarray(raw, dtype=np.float64).reshape(-1)
    if mean.size != count or raw.size != count:
        raise ShapeError(f"{count} values but {mean.size} means and {raw.size} scales")
    if not (np.isfinite(mean).all() and np.isfinite(raw).all()):
        raise NumericError("non-finite entropy parameters")
    mean = np.minimum(np.maximum(mean, 1 - ESCAPE_LIMIT), ESCAPE_LIMIT - 1)
    center = round_away(mean)
    frac = ((mean - center + 0.5) * TABLE_MEANS.size).astype(np.int64)
    rows = RAW_EDGES.searchsorted(raw) * TABLE_MEANS.size
    return center.astype(np.int64), rows + np.minimum(frac, TABLE_MEANS.size - 1)


def _unzigzag(u):
    return (u >> 1) ^ -(u & 1)


def _encode_symbols(flat, mean, raw):
    """Code the int64 array ``flat`` in order, each value as its offset
    from its rounded mean under its row of one table set.  The support is
    the observed offset range, narrowed to MAX_TABLE_BINS around the
    median offset when wider (the rest is escaped).  Returns
    (payload_bytes, (lo, hi))."""
    center, rows = _table_rows(mean, raw, flat.size)
    offsets = flat - center
    lo, hi = (int(offsets.min()), int(offsets.max())) if offsets.size else (0, 0)
    if hi - lo + 2 > MAX_TABLE_BINS:
        lo = int(np.median(offsets)) - (MAX_TABLE_BINS - 2) // 2
        hi = lo + MAX_TABLE_BINS - 2
    outside = (offsets < lo) | (offsets > hi)
    wide = offsets[outside & ((offsets < -ESCAPE_LIMIT) | (offsets >= ESCAPE_LIMIT))]
    if wide.size:
        raise ContractError(f"offset {wide[0]} too large for escape coding")
    cdfs = _table_set(lo, hi)
    symbols = np.where(outside, hi - lo + 1, offsets - lo)
    starts = cdfs[rows, symbols]
    v = offsets[outside]
    return rans.encode(starts, cdfs[rows, symbols + 1] - starts,
                       np.where(v < 0, -2 * v - 1, 2 * v)), (lo, hi)


def encode_gaussian(values, mean, raw):
    """Code integer ``values`` under per-element Gaussians given by their
    means and raw scales, arrays flattened in C order.  Returns
    (payload_bytes, (lo, hi)); the decoder needs the support (lo, hi),
    which the container stores.
    """
    return _encode_symbols(np.asarray(values).reshape(-1).astype(np.int64), mean, raw)


def _decode_values(dec, mean, raw, count, lo):
    """The next ``count`` values of ``dec``, one per element of ``mean``
    and ``raw``; the inverse of _encode_symbols."""
    center, rows = _table_rows(mean, raw, count)
    symbols, escaped = dec.decode(rows)
    out = symbols + lo
    out[symbols == dec.width - 2] = _unzigzag(escaped)
    return out + center


def decode_gaussian(payload, mean, raw, support, count):
    """Inverse of encode_gaussian; returns a flat int64 array."""
    lo, hi = int(support[0]), int(support[1])
    dec = rans.Decoder(payload, count, _table_set(lo, hi))
    return _decode_values(dec, mean, raw, count, lo)


def on_grid(net, z_hat):
    """``net``, the hyper decoder or the context net, on the exact grid over
    the hyper-latent clamped to +-Z_CLAMP."""
    return net.grid(np.clip(z_hat, -Z_CLAMP, Z_CLAMP))


def _taps(kernel, count, width):
    """Flat offsets, in a map ``width`` columns wide, of the first ``count``
    taps of a kernel in raster order: the taps a causal mask keeps."""
    dy, dx = np.divmod(np.arange(count), kernel)
    return (dy - kernel // 2) * width + dx - kernel // 2


class _ContextMap:
    """The context net's view of an h x w hyper-latent being decoded: the
    values written so far, clamped to +-Z_CLAMP, in a position-major map
    behind r zero rows above and r zero columns either side, where r is
    the net's reach.  ``params`` evaluates the net on the exact grid only at
    the cells that some positions read.

    The net is a mask-A conv, a mask-B conv, then 1x1 layers.  The first
    layer runs at the mask-B taps' offsets of each position, each from the
    mask-A taps of the map, and is zero outside the map, as the second
    layer's zero padding sees it; the rest run at the position itself.
    Activations are held in units of their grid step and weights in units
    of theirs, so each layer is a sum of integers and one rounding.  On the
    grid every sum is exact in any order, so a position's parameters equal
    those of ``Network.grid`` on the full map bit for bit, once the
    positions before it in coding order are written."""

    def __init__(self, ctx_net, c, h, w):
        first, second = ctx_net.spec.layers[:2]
        r = first.kernel // 2 + second.kernel // 2
        cols = w + 2 * r
        self.map = np.zeros(((h + r) * cols, c))
        inside = np.zeros((h + r, cols))
        inside[r:, r:r + w] = 1.0
        i, j = np.divmod(np.arange(h * w), w)
        self.at = (i + r) * cols + j + r
        self.cells = _taps(second.kernel, second.kernel ** 2 // 2 + 1, cols)
        self.inside = inside.reshape(-1)
        self.reads = (self.cells[:, None] + _taps(first.kernel, first.kernel ** 2 // 2, cols)
                      ).reshape(-1)
        self.layers = []
        wb, ab = L.GRID_WEIGHT_BITS, L.GRID_ACT_BITS
        for k, lay in enumerate(ctx_net.spec.layers):
            wk, b, slope = ctx_net.grid_layer(k)
            taps = lay.kernel ** 2 // 2 + (lay.mask == "B") if lay.mask else lay.kernel ** 2
            wk = wk.reshape(lay.out_ch, lay.in_ch, -1)[:, :, :taps] * 2.0 ** wb
            self.layers.append((wk.transpose(2, 1, 0).reshape(-1, lay.out_ch),
                                b.reshape(-1) * 2.0 ** (wb + ab),
                                None if slope is None else slope.reshape(-1)))

    def write(self, positions, values):
        """Write the (len(positions), c) ``values`` at flat map positions."""
        self.map[self.at[positions]] = np.clip(values, -Z_CLAMP, Z_CLAMP) * 2.0 ** L.GRID_ACT_BITS

    def params(self, positions):
        """The net's (len(positions), 2c) output at flat map positions."""
        at = self.at[positions]
        a = self.map[(at[:, None] + self.reads).reshape(-1)]
        a = a.reshape(at.size * self.cells.size, -1)
        for k, (w, b, slope) in enumerate(self.layers):
            a = np.rint((a @ w + b) * 2.0 ** -L.GRID_WEIGHT_BITS)
            if slope is not None:
                a = np.maximum(a, 0) + np.rint(slope * np.minimum(a, 0))
            if k == 0:
                a *= self.inside[at[:, None] + self.cells].reshape(-1, 1)
                a = a.reshape(at.size, -1)
        return a * 2.0 ** -L.GRID_ACT_BITS


def context_params(ctx_net, z_hat_data):
    """The causal context net on the exact grid over a rank-4 integer array
    (on_grid); returns the float64 mean and raw scale arrays, each of the
    input's shape."""
    out = on_grid(ctx_net, z_hat_data)
    c = z_hat_data.shape[1]
    return out[:, :c], out[:, c:]


def _decode_order(ctx_net, h, w):
    """Flat positions of an h x w map in coding order, and the same split
    into wavefronts.  With r the context net's reach, its summed kernel
    radius, the net's output at (i, j) reads only rows i-r..i and columns
    j-r..j+r of the map, and of row i only columns before j; so every
    position of wavefront (r+1)*i + j depends on earlier wavefronts alone,
    and a wavefront decodes as one batch."""
    r = sum(lay.kernel // 2 for lay in ctx_net.spec.layers)
    i, j = np.divmod(np.arange(h * w), w)
    front = (r + 1) * i + j
    order = np.lexsort((i, front))
    fronts = np.split(order, np.flatnonzero(np.diff(front[order])) + 1) if order.size else []
    return order, fronts


def encode_context(z_hat, ctx_net):
    """Encode an integer hyper-latent autoregressively.

    The encoder knows the whole map, so it evaluates the context net over
    all of it at once (context_params) and codes the values in the
    decoder's order: positions by wavefront (see _decode_order), channels
    within a position.  Returns (payload, (lo, hi)).
    """
    z = np.asarray(z_hat)
    if z.shape[0] != 1:
        raise ContractError("context coding runs on single-frame tensors")
    mean, raw = context_params(ctx_net, z)
    order = _decode_order(ctx_net, *z.shape[2:])[0]
    flat, mean_f, raw_f = (a[0].reshape(a.shape[1], -1)[:, order].T.reshape(-1)
                           for a in (z, mean, raw))
    return _encode_symbols(flat.astype(np.int64), mean_f, raw_f)


def decode_context(payload, ctx_net, shape, support):
    """Decode the hyper-latent wavefront by wavefront (all channels of each
    position at once).

    Each wavefront's parameters come from the cells its positions read,
    over the values decoded before it (_ContextMap); they equal the
    encoder's bit for bit, so encoder and decoder select identical rows of
    the one table set.
    """
    n, c, h, w = shape
    if n != 1:
        raise ContractError("context decoding runs on single-frame tensors")
    lo, hi = int(support[0]), int(support[1])
    dec = rans.Decoder(payload, c * h * w, _table_set(lo, hi))
    cmap = _ContextMap(ctx_net, c, h, w)
    z = np.zeros((h * w, c))
    for front in _decode_order(ctx_net, h, w)[1]:
        out = cmap.params(front)
        values = _decode_values(dec, out[:, :c], out[:, c:], front.size * c, lo)
        z[front] = values.reshape(-1, c)
        cmap.write(front, z[front])
    return np.ascontiguousarray(z.T.reshape(1, c, h, w))


def context_bits(z_hat_t, ctx_net, grid=False):
    """Rate of a (possibly noise-quantized) hyper-latent under the context
    model; returns the per-element bits tensor.  Differentiable through
    the float net; with ``grid`` the parameters are the coder's, from the
    exact grid, and pass no gradient."""
    if grid:
        params = T.Tensor(on_grid(ctx_net, z_hat_t.data).astype(z_hat_t.dtype))
    else:
        params = ctx_net(z_hat_t)
    return gaussian_bits(z_hat_t, params)
