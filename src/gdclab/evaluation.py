"""Evaluation utilities: distortion metrics, rate-distortion curves,
Bjontegaard rate deltas, and the quad-tree reconstruction-mode search.

The quad-tree machinery serves coders that decode two candidate
reconstructions from one latent.  A per-frame tree picks, block by block,
which candidate to keep; the tree itself is cheap side information.  Side
information accounting: every visited node larger than the minimum block
spends one split flag, and every leaf spends one mode bit.  A tree built
under this rule is exactly decodable from its bit sequence, and the
dynamic program below is optimal for the induced cost
``J = SSE + lambda * side_bits`` with SSE measured on the 0..255 scale.
The search writes the bits, and parse_quadtree alone turns bits into a
leaf list, for the encoder and the decoder alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError, ShapeError

PSNR_CAP = 99.0
MIN_CURVE_POINTS = 4
MIN_BLOCK, MAX_BLOCK = 4, 256     # the quad-tree block range's outer bounds


def psnr(a, b):
    """Peak signal-to-noise ratio in dB between arrays on the [0, 1] scale.
    Identical inputs (and anything above PSNR_CAP) report PSNR_CAP; a nan in
    either input reports nan."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if math.isnan(mse):
        return math.nan
    if mse <= 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, -10.0 * math.log10(mse))


def bits_per_pixel(total_bits, height, width):
    if height <= 0 or width <= 0:
        raise ContractError("frame dimensions must be positive")
    return total_bits / float(height * width)


# -- rate-distortion curves -------------------------------------------------

@dataclass(frozen=True)
class RDPoint:
    bpp: float
    psnr: float


def check_curve(points):
    """A usable curve has at least MIN_CURVE_POINTS finite samples with
    positive, strictly increasing rate and strictly increasing quality."""
    if len(points) < MIN_CURVE_POINTS:
        raise ContractError(f"need at least {MIN_CURVE_POINTS} points, got {len(points)}")
    for p in points:
        if not (math.isfinite(p.bpp) and math.isfinite(p.psnr)):
            raise ContractError(f"curve point ({p.bpp}, {p.psnr}) is not finite")
    for prev, cur in zip(points, points[1:]):
        if not (cur.bpp > prev.bpp):
            raise ContractError(f"bpp not strictly increasing at {cur.bpp}")
        if not (cur.psnr > prev.psnr):
            raise ContractError(f"psnr not strictly increasing at {cur.psnr}")
    for p in points:
        if p.bpp <= 0:
            raise ContractError("bpp must be positive")


def bd_rate(reference, test):
    """Average rate difference of ``test`` against ``reference`` in percent,
    from cubic fits of log10(rate) over quality integrated across the
    overlapping quality range.  Negative means the test curve spends fewer
    bits at equal quality."""
    check_curve(reference)
    check_curve(test)
    qr = np.array([p.psnr for p in reference], dtype=np.float64)
    rr = np.log10([p.bpp for p in reference])
    qt = np.array([p.psnr for p in test], dtype=np.float64)
    rt = np.log10([p.bpp for p in test])
    lo = max(qr.min(), qt.min())
    hi = min(qr.max(), qt.max())
    if not (hi > lo):
        raise ContractError(f"quality ranges do not overlap ([{qr.min()}, {qr.max()}] "
                            f"vs [{qt.min()}, {qt.max()}])")
    fit_ref = np.polyfit(qr, rr, 3)
    fit_test = np.polyfit(qt, rt, 3)
    int_ref = np.polyval(np.polyint(fit_ref), [lo, hi])
    int_test = np.polyval(np.polyint(fit_test), [lo, hi])
    avg_diff = ((int_test[1] - int_test[0]) - (int_ref[1] - int_ref[0])) / (hi - lo)
    return 100.0 * (10.0 ** avg_diff - 1.0)


# -- quad-tree mode search --------------------------------------------------

class QTLeaf(NamedTuple):
    y: int
    x: int
    size: int
    mode: str                # "d" or "g"


@dataclass
class QTResult:
    leaves: tuple            # parse_quadtree(bits, ...): the tree in pre-order
    bits: list
    merged: np.ndarray
    cost: float
    area: int

    @property
    def side_bits(self):
        return len(self.bits)

    @property
    def mode_d_area(self):
        return sum(leaf.size * leaf.size for leaf in self.leaves if leaf.mode == "d")

    @property
    def mode_d_fraction(self):
        return self.mode_d_area / self.area


def _is_pow2(v):
    return v >= 1 and (v & (v - 1)) == 0


def root_block(height, width, min_block, max_block):
    """Root tile size for a height x width canvas: the largest power of two
    dividing both dimensions, clipped to ``max_block``.  Raises unless the
    block range is valid and the canvas tiles at ``min_block`` or above."""
    if not (_is_pow2(min_block) and _is_pow2(max_block)):
        raise ContractError(f"block sizes must be powers of two, "
                            f"got {min_block}, {max_block}")
    if not (MIN_BLOCK <= min_block <= max_block <= MAX_BLOCK):
        raise ContractError(f"block range must satisfy {MIN_BLOCK} <= min <= max <= "
                            f"{MAX_BLOCK}, got [{min_block}, {max_block}]")
    g = math.gcd(height, width)
    b = min(max_block, g & (-g))
    if b < min_block:
        raise ContractError(f"{height}x{width} canvas cannot be tiled at "
                            f"block size >= {min_block}")
    return b


def check_lambda(lam):
    """The quad-tree's rate weight must be finite and non-negative."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ContractError(f"lambda must be finite and non-negative, got {lam}")


def _integral(err):
    out = np.zeros((err.shape[0] + 1, err.shape[1] + 1), dtype=np.float64)
    np.cumsum(err, axis=0, out=out[1:, 1:])
    np.cumsum(out[1:, 1:], axis=1, out=out[1:, 1:])
    return out


def _block_sums(integ, s):
    return (integ[s::s, s::s] - integ[:-s:s, s::s]
            - integ[s::s, :-s:s] + integ[:-s:s, :-s:s])


def _sse_map(x, ref):
    d = (np.asarray(x, dtype=np.float64) - np.asarray(ref, dtype=np.float64)) * 255.0
    return np.sum(d * d, axis=(0, 1))


def quadtree_search(x, cand_d, cand_g, lam, min_block=MIN_BLOCK, max_block=MAX_BLOCK):
    """Optimal quad-tree over two candidate reconstructions of ``x``.

    All frames are (1, C, H, W) with H and W divisible by the root tile.
    Ties prefer not splitting, and equal-SSE leaves prefer mode "d".  The
    merged frame comes from parsing the tree's own bits, as a decoder does.
    """
    x = np.asarray(x)
    if x.ndim != 4 or x.shape[0] != 1:
        raise ShapeError(f"expected a single (1, C, H, W) frame, got {x.shape}")
    if x.shape != np.asarray(cand_d).shape or x.shape != np.asarray(cand_g).shape:
        raise ShapeError("frame and candidates must share a shape")
    check_lambda(lam)
    h, w = x.shape[2], x.shape[3]
    b = root_block(h, w, min_block, max_block)

    int_d = _integral(_sse_map(x, cand_d))
    int_g = _integral(_sse_map(x, cand_g))

    levels = {}
    s = min_block
    while s <= b:
        sse_d = _block_sums(int_d, s)
        sse_g = _block_sums(int_g, s)
        mode_g = sse_g < sse_d
        leaf_sse = np.where(mode_g, sse_g, sse_d)
        if s == min_block:
            cost = leaf_sse + lam
            split = np.zeros_like(mode_g)
        else:
            split_sum = (cost[0::2, 0::2] + cost[0::2, 1::2]
                         + cost[1::2, 0::2] + cost[1::2, 1::2])
            leaf_total = lam + leaf_sse + lam
            split_total = lam + split_sum
            split = split_total < leaf_total
            cost = np.where(split, split_total, leaf_total)
        levels[s] = (split.tolist(), mode_g.tolist())
        s *= 2

    bits = serialize_quadtree(levels)
    leaves = parse_quadtree(bits, h, w, min_block, max_block)
    return QTResult(leaves=leaves, bits=bits,
                    merged=merge_reconstructions(cand_d, cand_g, leaves),
                    cost=float(sum(cost.ravel().tolist())), area=h * w)


def merge_reconstructions(cand_d, cand_g, leaves):
    """cand_g on the "g" leaves and cand_d elsewhere, in cand_d's dtype."""
    cand_d = np.asarray(cand_d)
    mode_g = np.zeros(cand_d.shape[2:], dtype=bool)
    for leaf in leaves:
        if leaf.mode == "g":
            mode_g[leaf.y:leaf.y + leaf.size, leaf.x:leaf.x + leaf.size] = True
    return np.where(mode_g, cand_g, cand_d).astype(cand_d.dtype, copy=False)


def serialize_quadtree(levels):
    """Pre-order bit sequence of the tree in the search's per-size
    ``(split, mode_g)`` grids, block size -> rows of flags: a split flag on
    every node above the minimum size, then a mode bit (0 = d, 1 = g) on
    leaves, children in raster order.  Roots follow in raster order."""
    min_block, b = min(levels), max(levels)
    bits = []

    def walk(yi, xi, s):
        split, mode_g = levels[s]
        if s > min_block:
            bits.append(int(split[yi][xi]))
        if split[yi][xi]:
            for dy in (0, 1):
                for dx in (0, 1):
                    walk(2 * yi + dy, 2 * xi + dx, s // 2)
        else:
            bits.append(int(mode_g[yi][xi]))

    for yi in range(len(levels[b][0])):
        for xi in range(len(levels[b][0][0])):
            walk(yi, xi, b)
    return bits


def parse_quadtree(bits, height, width, min_block, max_block=MAX_BLOCK):
    """Inverse of serialize_quadtree for a height x width canvas: the
    leaves in pre-order.  Every bit must belong to the tree."""
    b = root_block(height, width, min_block, max_block)
    leaves = []
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(bits):
            raise ContractError("quad-tree bit sequence ended early")
        v = bits[pos]
        pos += 1
        if v not in (0, 1):
            raise ContractError(f"quad-tree bits must be 0/1, got {v!r}")
        return v

    def read(y, x, s):
        if s > min_block and take():
            s //= 2
            for dy in (0, s):
                for dx in (0, s):
                    read(y + dy, x + dx, s)
        else:
            leaves.append(QTLeaf(y, x, s, "g" if take() else "d"))

    for y in range(0, height, b):
        for x in range(0, width, b):
            read(y, x, b)
    if pos != len(bits):
        raise ContractError(f"quad-tree side info has {len(bits)} bits, tree used {pos}")
    return tuple(leaves)
