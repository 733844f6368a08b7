"""Rate-distortion training: loss, Adam, synthetic prediction pairs, and
the per-sample target-selection rule for the two-reconstruction coder.

The loss is L = MSE + lambda * R with the squared error on the 0..255
intensity scale and R in bits per pixel, which makes the two terms
commensurate for lambdas from a few hundred to a few thousand.  Pair
synthesis replaces an external motion pipeline: the prediction is a
translated (optionally blurred) resampling of the source patch, degraded by
uniform quantization calibrated so prediction quality lands near 35 dB,
with a noise knob to push pairs below the 30 dB routing threshold when a
corpus needs both regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .errors import ContractError, NumericError, ShapeError, TrainingError
from .evaluation import psnr

THRESHOLD_DB = 30.0
MSE_SCALE = 255.0 ** 2
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
CALIBRATION_ITERS = 40
# calibrate_quant_step aims the corpus-mean degradation at this PSNR, within
# this tolerance, sampling this many pairs per image.
CALIBRATION_TARGET_DB = 35.0
CALIBRATION_TOL_DB = 1.0
CALIBRATION_PAIRS = 4
CORPUS_BAND_DB = 1.0
# synthetic_image: colour channels and cosine gratings per image.
SYNTHETIC_CHANNELS = 3
SYNTHETIC_WAVES = 5


@dataclass(frozen=True)
class TrainConfig:
    lmbda: float = 1024.0
    lr: float = 1e-4
    steps: int = 2000
    seed: int = 0
    patch: int = 32

    def __post_init__(self):
        if not (0 < self.lmbda < math.inf and 0 < self.lr < math.inf):
            raise ContractError("lambda and learning rate must be positive and finite")
        if self.steps < 0 or self.seed < 0:
            raise ContractError("steps and seed must be non-negative")


def rd_loss(x, x_hat, rate_bits, lmbda, pixel_count):
    """L = MSE_255 + lambda * bits/pixel as a differentiable scalar.
    ``pixel_count`` is frames times spatial positions (channels are part of
    the mean, not the pixel count)."""
    if x.shape != x_hat.shape:
        raise ShapeError(f"shape mismatch {x.shape} vs {x_hat.shape}")
    if pixel_count <= 0:
        raise ContractError("pixel count must be positive")
    diff = T.sub(x_hat, x)
    mse = T.scale(T.mean_all(T.mul(diff, diff)), MSE_SCALE)
    return T.add(mse, T.scale(rate_bits, lmbda / pixel_count))


# -- optimizer --------------------------------------------------------------

@dataclass
class OptimState:
    m: dict
    v: dict
    step: int = 0


def adam_init(params):
    return OptimState(
        m={n: np.zeros_like(t.data) for n, t in params.items()},
        v={n: np.zeros_like(t.data) for n, t in params.items()},
        step=0)


def adam_step(params, state, lr):
    """One bias-corrected Adam update.  Absent gradients count as zero;
    any non-finite gradient rejects the whole step before mutation."""
    grads = {}
    for name, t in params.items():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name!r}")
        grads[name] = g
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    for name, t in params.items():
        g = grads[name]
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[name] / c1
        v_hat = state.v[name] / c2
        t.data = t.data - (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(t.data.dtype)


def select_xgdc_target(x, xt):
    """'train-d' when the prediction strictly exceeds the quality threshold,
    'train-g' otherwise (including exactly at the threshold)."""
    x = np.asarray(x.data if isinstance(x, T.Tensor) else x)
    xt = np.asarray(xt.data if isinstance(xt, T.Tensor) else xt)
    return "train-d" if psnr(xt, x) > THRESHOLD_DB else "train-g"


# -- prediction-pair synthesis ----------------------------------------------

@dataclass(frozen=True)
class GenConfig:
    patch: int = 32
    max_shift: int = 2
    subpixel: bool = True
    blur: float = 0.0        # 0 = none, 1 = full 3x3 box blur
    quant_step: float = 0.0  # uniform quantization step on the 0..255 scale
    noise: float = 0.0       # additive Gaussian sigma on the [0,1] scale

    def margin(self):
        return self.max_shift + 1


def bilinear_crop(image, top, left, size):
    """Fractional-origin square crop by bilinear sampling.  The whole
    sampled window must lie inside the image."""
    arr = np.asarray(image)
    if arr.ndim != 4:
        raise ShapeError(f"expected (n, c, h, w), got {arr.shape}")
    h, w = arr.shape[2], arr.shape[3]
    y0 = math.floor(top)
    x0 = math.floor(left)
    fy = top - y0
    fx = left - x0
    if y0 < 0 or x0 < 0 or y0 + size + (fy > 0) > h or x0 + size + (fx > 0) > w:
        raise ContractError(f"crop [{top}, {left}] + {size} leaves the {h}x{w} image")
    ys = min(y0 + size + 1, h)
    xs = min(x0 + size + 1, w)
    win = arr[:, :, y0:ys, x0:xs].astype(np.float64)
    a = win[:, :, :size, :size]
    b = win[:, :, :size, 1:size + 1] if fx > 0 else a
    c = win[:, :, 1:size + 1, :size] if fy > 0 else a
    d = win[:, :, 1:size + 1, 1:size + 1] if (fy > 0 and fx > 0) else (c if fx == 0 else b)
    out = ((1 - fy) * (1 - fx) * a + (1 - fy) * fx * b
           + fy * (1 - fx) * c + fy * fx * d)
    return out.astype(arr.dtype if arr.dtype == np.float32 else np.float32)


def _box3(arr):
    p = np.pad(arr, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="edge")
    acc = np.zeros_like(arr, dtype=np.float64)
    for dy in range(3):
        for dx in range(3):
            acc += p[:, :, dy:dy + arr.shape[2], dx:dx + arr.shape[3]]
    return (acc / 9.0).astype(arr.dtype)


def quantize_intensities(arr, step):
    """Uniform scalar quantization on the 0..255 scale."""
    if step <= 0:
        return arr
    scaled = np.asarray(arr, dtype=np.float64) * (255.0 / step)
    return np.clip(np.rint(scaled) * (step / 255.0), 0.0, 1.0).astype(np.float32)


def make_pair(image, gen, rng):
    """Random (source, prediction) patch pair from one image.

    The source is a clean integer-aligned crop; the prediction resamples
    the same image at a translated (possibly fractional) origin, then
    optionally blurs, quantizes, and adds noise."""
    arr = np.asarray(image.data if isinstance(image, T.Tensor) else image)
    if arr.ndim != 4:
        raise ShapeError(f"expected (n, c, h, w), got {arr.shape}")
    h, w = arr.shape[2], arr.shape[3]
    m = gen.margin()
    if h < gen.patch + 2 * m or w < gen.patch + 2 * m:
        raise ContractError(f"{h}x{w} image too small for patch {gen.patch} "
                            f"with shift margin {m}")
    oy = int(rng.integers(m, h - gen.patch - m + 1))
    ox = int(rng.integers(m, w - gen.patch - m + 1))
    x = arr[:, :, oy:oy + gen.patch, ox:ox + gen.patch].astype(np.float32)
    dy = float(rng.integers(-gen.max_shift, gen.max_shift + 1)) if gen.max_shift else 0.0
    dx = float(rng.integers(-gen.max_shift, gen.max_shift + 1)) if gen.max_shift else 0.0
    if gen.subpixel:
        dy += 0.5 * float(rng.integers(0, 2))
        dx += 0.5 * float(rng.integers(0, 2))
    xt = bilinear_crop(arr, oy + dy, ox + dx, gen.patch)
    if gen.blur > 0:
        xt = ((1.0 - gen.blur) * xt + gen.blur * _box3(xt)).astype(np.float32)
    if gen.quant_step > 0:
        xt = quantize_intensities(xt, gen.quant_step)
    if gen.noise > 0:
        xt = np.clip(xt + rng.normal(scale=gen.noise, size=xt.shape),
                     0.0, 1.0).astype(np.float32)
    return x, xt


def calibrate_quant_step(images, gen, seed=0):
    """Bisect the quantization step until the corpus-mean degradation
    PSNR (quantized prediction vs clean prediction) hits
    CALIBRATION_TARGET_DB."""
    target_db, tol = CALIBRATION_TARGET_DB, CALIBRATION_TOL_DB

    def mean_db(step):
        rng = np.random.default_rng(seed)
        vals = []
        for img in images:
            for _ in range(CALIBRATION_PAIRS):
                clean = replace(gen, quant_step=0.0, noise=0.0)
                _, xt = make_pair(img, clean, rng)
                vals.append(psnr(quantize_intensities(xt, step), xt))
        return float(np.mean(vals))

    lo, hi = 0.25, 96.0
    achieved = mean_db(lo)
    if achieved < target_db:
        raise ContractError("even the finest step misses the quality target")
    for _ in range(CALIBRATION_ITERS):
        mid = 0.5 * (lo + hi)
        mid_db = mean_db(mid)
        if mid_db >= target_db:
            lo, achieved = mid, mid_db
        else:
            hi = mid
        if abs(achieved - target_db) <= tol * 0.25:
            break
    if abs(achieved - target_db) > tol:
        raise ContractError(f"calibration landed at {achieved:.2f} dB, "
                            f"outside {target_db} +- {tol}")
    return lo, achieved


# -- synthetic corpus -------------------------------------------------------

def synthetic_image(rng, height=48, width=48):
    """Smooth random field: a mean level plus a few low-frequency cosine
    gratings, mildly decorrelated across channels."""
    yy, xx = np.meshgrid(np.linspace(0, 1, height), np.linspace(0, 1, width),
                         indexing="ij")
    base = np.zeros((height, width))
    for _ in range(SYNTHETIC_WAVES):
        fy, fx = rng.uniform(-3, 3, size=2)
        phase = rng.uniform(0, 2 * np.pi)
        base += rng.uniform(0.05, 0.2) * np.cos(2 * np.pi * (fy * yy + fx * xx) + phase)
    img = np.empty((1, SYNTHETIC_CHANNELS, height, width), dtype=np.float32)
    for c in range(SYNTHETIC_CHANNELS):
        tweak = rng.uniform(0.02, 0.06) * np.cos(
            2 * np.pi * (rng.uniform(-2, 2) * yy + rng.uniform(-2, 2) * xx)
            + rng.uniform(0, 2 * np.pi))
        img[0, c] = np.clip(0.5 + base + tweak, 0.02, 0.98)
    return img


def make_corpus(rng, count, patch=32):
    """Alternating pairs guaranteed to straddle the routing threshold:
    even indices sit above it (translation-free, quantization only), odd
    indices sit below (shifted and noisy).  Each pair is re-synthesized
    with a harsher or gentler knob until its side is certain by at least
    CORPUS_BAND_DB."""
    pairs = []
    size = patch + 8
    for i in range(count):
        img = synthetic_image(rng, size, size)
        if i % 2 == 0:
            gen = GenConfig(patch=patch, max_shift=0, subpixel=False, quant_step=12.0)
            while True:
                x, xt = make_pair(img, gen, rng)
                if psnr(xt, x) > THRESHOLD_DB + CORPUS_BAND_DB:
                    break
                gen = replace(gen, quant_step=gen.quant_step / 2.0)
        else:
            gen = GenConfig(patch=patch, max_shift=2, subpixel=True,
                            blur=0.5, quant_step=24.0, noise=0.03)
            while True:
                x, xt = make_pair(img, gen, rng)
                if psnr(xt, x) < THRESHOLD_DB - CORPUS_BAND_DB:
                    break
                gen = replace(gen, noise=gen.noise * 1.8)
        pairs.append((x, xt))
    return pairs


# -- epochs -----------------------------------------------------------------

@dataclass
class EpochStats:
    steps: int = 0
    mean_loss: float = 0.0
    mean_bpp: float = 0.0
    mean_psnr: float = 0.0
    mode_d_fraction: float = float("nan")
    losses: list = field(default_factory=list)


class _Tally:
    """Per-pair accounting of one pass, shared by training and evaluation:
    loss, bpp, PSNR and the count routed to train-d, summed in pair order
    and turned into EpochStats means in one place."""

    def __init__(self, coder, lmbda):
        self.coder, self.lmbda = coder, lmbda
        self.steps = self.d_routed = 0
        self.loss = self.bpp = self.psnr = 0.0

    def add(self, out, tx, txt):
        """Route the forward pass ``out`` of the pair (tx, txt), add its
        figures and return its loss tensor."""
        if self.coder.cfg.kind == "xgdc":
            to_d = select_xgdc_target(tx, txt) == "train-d"
            recon = out.x_hat_d if to_d else out.x_hat_g
        else:
            to_d, recon = False, out.single()
        pixels = tx.shape[0] * tx.shape[2] * tx.shape[3]
        rate = out.total_rate()
        loss = rd_loss(tx, recon, rate, self.lmbda, pixels)
        self.steps += 1
        self.d_routed += to_d
        self.loss += loss.item()
        self.bpp += rate.item() / pixels
        self.psnr += psnr(recon.data, tx.data)
        return loss

    def stats(self, losses=()):
        stats = EpochStats(steps=self.steps, losses=list(losses))
        if self.steps:
            stats.mean_loss = self.loss / self.steps
            stats.mean_bpp = self.bpp / self.steps
            stats.mean_psnr = self.psnr / self.steps
            if self.coder.cfg.kind == "xgdc":
                stats.mode_d_fraction = self.d_routed / self.steps
        return stats


def train_epoch(coder, pairs, cfg, opt_state=None):
    """One pass over ``pairs`` (batch of one), deterministic for a given
    config and seed.  Returns (stats, optimizer state)."""
    if opt_state is None:
        opt_state = adam_init(coder.params)
    rng = np.random.default_rng(cfg.seed)
    tally = _Tally(coder, cfg.lmbda)
    losses = []
    for step, (x_arr, xt_arr) in enumerate(pairs):
        coder.params.zero_grads()
        tx = T.Tensor(np.asarray(x_arr))
        txt = T.Tensor(np.asarray(xt_arr))
        loss = tally.add(coder.forward(tx, txt, mode="noise", rng=rng), tx, txt)
        val = loss.item()
        if not np.isfinite(val):
            raise TrainingError(f"non-finite loss {val!r}", step=step)
        T.backward(loss)
        adam_step(coder.params, opt_state, cfg.lr)
        losses.append(val)
    return tally.stats(losses), opt_state


def evaluate_pairs(coder, pairs, lmbda):
    """Held-out metrics in deterministic round mode; parameters untouched."""
    tally = _Tally(coder, lmbda)
    with T.no_grad():
        for x_arr, xt_arr in pairs:
            tx = T.Tensor(np.asarray(x_arr))
            txt = T.Tensor(np.asarray(xt_arr))
            tally.add(coder.forward(tx, txt, mode="round"), tx, txt)
    return tally.stats()
