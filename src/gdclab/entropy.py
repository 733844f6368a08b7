"""Quantization, discretized-Gaussian rate estimates, and the glue between
learned entropy parameters and the range coder.

Rates are measured against the discretized Gaussian

    p(v) = Phi((v - mu + 1/2) / sigma) - Phi((v - mu - 1/2) / sigma)

with p floored at 2^-16 so no element can cost more than 16 bits, and
scales floored at SCALE_MIN.  The same mean/scale arrays drive the actual
coder: each value is coded as its offset from its rounded mean under one
table of a fixed set, strictly increasing 2^16-grid CDFs over an integer
support plus one trailing escape bin, one per (scale, mean fraction) point
of a 64 x 8 grid.  Offsets outside the support are sent as the escape
symbol followed by four raw bytes (zigzag), so the coder is total even
when the model support is misjudged.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf as _erf

from . import tensor as T
from .errors import ContractError, NumericError, ShapeError
from .rangecoder import CDF_TOTAL, RangeDecoder, RangeEncoder

SCALE_MIN = 0.11
PROB_FLOOR = 2.0 ** -16
_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# A coder table has at most this many bins, escape included, so a decoder
# rejects a wider (patched) support before building any table.
MAX_TABLE_BINS = 1024
# Escaped values are sent as four raw bytes of their zigzag code.
ESCAPE_LIMIT = 1 << 31
_BYTE_FREQ = CDF_TOTAL // 256
_BYTE_ROW = list(range(0, CDF_TOTAL + 1, _BYTE_FREQ))
# The table set's grid: log-spaced scales, and the bucket centres of the
# mean's fraction in (-0.5, 0.5).
TABLE_SCALES = np.geomspace(SCALE_MIN, 256.0, 64)
TABLE_MEANS = (np.arange(8) + 0.5) / 8 - 0.5
_SCALE_EDGES = np.sqrt(TABLE_SCALES[1:] * TABLE_SCALES[:-1])


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


def gaussian_bits(values, mean, scale):
    """Per-element rate estimate in bits as a graph tensor.

    All three arguments are tensors of one shape; ``scale`` must respect
    SCALE_MIN.  Differentiable w.r.t. every argument; clamped elements
    (those at the 16-bit ceiling) pass no gradient.
    """
    if values.shape != mean.shape or values.shape != scale.shape:
        raise ShapeError(f"gaussian_bits: shapes differ {values.shape} {mean.shape} {scale.shape}")
    if not np.all(np.isfinite(mean.data)) or not np.all(np.isfinite(scale.data)):
        raise NumericError("gaussian_bits: non-finite entropy parameters")
    if np.any(scale.data < SCALE_MIN * (1.0 - 1e-6)):
        raise ContractError(f"gaussian_bits: scale below SCALE_MIN={SCALE_MIN}")
    centered = T.sub(values, mean)
    hi = T.div(T.add_scalar(centered, 0.5), scale)
    lo = T.div(T.add_scalar(centered, -0.5), scale)
    p = T.sub(T.normal_cdf(hi), T.normal_cdf(lo))
    return T.scale(T.log2(T.clamp_min(p, PROB_FLOOR)), -1.0)


def scale_from_raw(raw):
    """Map an unconstrained tensor to a valid scale: SCALE_MIN + softplus."""
    return T.add_scalar(T.softplus(raw), SCALE_MIN)


def gaussian_head(out, c):
    """Split a net output of 2*c channels into (mean, scale) tensors: the
    first c channels are the mean, the rest the raw scale."""
    return T.slice_channels(out, 0, c), scale_from_raw(T.slice_channels(out, c, 2 * c))


def _interval_probs(mean, scale, lo, hi):
    """Probabilities of integer bins lo..hi (inclusive) for each element.

    mean/scale are flat float arrays of length n; returns (n, hi-lo+1).
    """
    edges = np.arange(lo, hi + 2, dtype=np.float64) - 0.5
    z = (edges[None, :] - mean[:, None]) / scale[:, None]
    cdf = 0.5 * (1.0 + _erf(z * _INV_SQRT2))
    return np.diff(cdf, axis=1)


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


def _table_rows(mean, scale, count):
    """Each element's rounded mean (int64) and table-set row: the nearest
    grid scale on a log axis, and the bucket of the mean's fraction.  Means
    are clipped first, so a value of 0 stays escapable and nothing wraps."""
    mean = np.asarray(mean, dtype=np.float64).reshape(-1)
    scale = np.asarray(scale, dtype=np.float64).reshape(-1)
    if mean.size != count or scale.size != count:
        raise ShapeError(f"{count} values but {mean.size} means and {scale.size} scales")
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(scale))):
        raise NumericError("non-finite entropy parameters")
    mean = np.clip(mean, 1 - ESCAPE_LIMIT, ESCAPE_LIMIT - 1)
    center = round_away(mean)
    frac = ((mean - center + 0.5) * TABLE_MEANS.size).astype(np.int64)
    rows = np.searchsorted(_SCALE_EDGES, scale) * TABLE_MEANS.size
    return center.astype(np.int64), rows + np.minimum(frac, TABLE_MEANS.size - 1)


def _unzigzag(u):
    return (u >> 1) ^ -(u & 1)


def _escape_intervals(starts, freqs, values, escaped):
    """Follow each escape interval with the four byte intervals of its
    value's zigzag code, most significant byte first."""
    v = values[escaped]
    u = np.where(v < 0, -2 * v - 1, 2 * v)
    after = np.repeat(np.flatnonzero(escaped) + 1, 4)
    code = (u[:, None] >> np.array([24, 16, 8, 0])) & 0xFF
    return np.insert(starts, after, code.ravel() * _BYTE_FREQ), np.insert(freqs, after, _BYTE_FREQ)


def _encode_symbols(flat, mean, scale):
    """Range-code the int64 array ``flat`` in order, each value as its
    offset from its rounded mean under its row of one table set.  The
    support is the observed offset range, narrowed to MAX_TABLE_BINS around
    the median offset when wider (the rest is escaped).  Returns
    (payload_bytes, (lo, hi))."""
    center, rows = _table_rows(mean, scale, flat.size)
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
    freqs = cdfs[rows, symbols + 1] - starts
    if outside.any():
        starts, freqs = _escape_intervals(starts, freqs, offsets, outside)
    enc = RangeEncoder()
    enc.encode_intervals(starts.tolist(), freqs.tolist())
    return enc.finish(), (lo, hi)


def encode_gaussian(values, mean, scale):
    """Range-code integer ``values`` under per-element Gaussians, arrays
    flattened in C order.  Returns (payload_bytes, (lo, hi)); the decoder
    needs the support (lo, hi), which the container stores.
    """
    return _encode_symbols(np.asarray(values).reshape(-1).astype(np.int64), mean, scale)


def _decode_symbols(dec, table, mean, scale, count, lo):
    """Decode ``count`` values from ``dec`` under rows of ``table`` (the
    set over support [lo, ...] as lists); the inverse of _encode_symbols."""
    center, rows = _table_rows(mean, scale, count)
    escape = len(table[0]) - 2
    symbols, raw = [], []
    rows = map(table.__getitem__, rows.tolist())
    while dec.decode_rows(rows, symbols, escape):
        dec.decode_rows((_BYTE_ROW,) * 4, raw)
    out = np.array(symbols, dtype=np.int64)
    escaped = out == escape
    out += lo
    out[escaped] = _unzigzag(np.frombuffer(bytes(raw), ">u4").astype(np.int64))
    return out + center


def decode_gaussian(payload, mean, scale, support, count):
    """Inverse of encode_gaussian; returns a flat int64 array."""
    lo, hi = int(support[0]), int(support[1])
    table = _table_set(lo, hi).tolist()
    return _decode_symbols(RangeDecoder(payload), table, mean, scale, count, lo)


def context_params(ctx_net, z_hat_data):
    """Run the causal context net over a (1, C, H, W) integer-valued array
    cast to the net's dtype and return float mean / scale arrays of the
    same shape."""
    with T.no_grad():
        out = ctx_net(T.Tensor(np.ascontiguousarray(z_hat_data, dtype=ctx_net.params.dtype)))
        mean, scale = gaussian_head(out, z_hat_data.shape[1])
    return mean.data, scale.data


def encode_context(z_hat, ctx_net):
    """Encode an integer hyper-latent autoregressively.

    The context net sees the full tensor in one pass (its masks make each
    output position a function of strictly earlier positions only), so the
    encoder is one forward pass plus a raster scan in the decoder's order:
    positions in raster order, channels within a position.  Returns
    (payload, (lo, hi)).
    """
    z = np.asarray(z_hat)
    mean, scale = context_params(ctx_net, z)
    # reorder (c, h, w) -> (h, w, c) so the stream matches sequential decoding
    flat, mean_f, scale_f = (a[0].transpose(1, 2, 0).reshape(-1) for a in (z, mean, scale))
    return _encode_symbols(flat.astype(np.int64), mean_f, scale_f)


def decode_context(payload, ctx_net, shape, support):
    """Decode the hyper-latent by alternating context-net evaluations with
    symbol decoding in raster order (all channels of a position at once).

    The partially decoded tensor holds zeros at future positions; the mask
    structure guarantees those zeros cannot influence the parameters of the
    positions being decoded, so encoder and decoder select bit-identical
    rows of the one table set.
    """
    n, c, h, w = shape
    if n != 1:
        raise ContractError("context decoding runs on single-frame tensors")
    lo, hi = int(support[0]), int(support[1])
    table = _table_set(lo, hi).tolist()
    z = np.zeros(shape, dtype=np.float64)
    dec = RangeDecoder(payload)
    for i in range(h):
        for j in range(w):
            mean, scale = context_params(ctx_net, z)
            z[0, :, i, j] = _decode_symbols(dec, table, mean[0, :, i, j], scale[0, :, i, j], c, lo)
    return z


def context_bits(z_hat_t, ctx_net):
    """Differentiable rate of a (possibly noise-quantized) hyper-latent
    under the context model; returns the per-element bits tensor."""
    mean, scale = gaussian_head(ctx_net(z_hat_t), z_hat_t.shape[1])
    return gaussian_bits(z_hat_t, mean, scale)
