"""Seeded benchmark inputs: frames, predictions and the 32x32 training pairs.

Everything here is plain numpy driven by one ``numpy.random.Generator``, so
the inputs depend only on the workload seed and never on library code a
later change may alter (the package's own corpus and image synthesizers
are deliberately not used).

A frame is a smooth random field with sharp-edged rectangles and a faint
fine grating, with a smooth per-channel tint, on the [0, 1] scale.  (A
constant per-channel colour cast is left out on purpose: the xgdc
fixture's gs head is sensitive to it, which made the quad-tree mode split
swing from 0.5 to 0.97 between seeds.)  A prediction is the frame shifted
by up to two pixels and blurred by half a pixel, plus noise whose amplitude
varies smoothly over the frame, with the error scaled so the prediction
lands at a chosen PSNR.  The spatially varying error gives the quad-tree
search regions where each of the two xgdc reconstructions wins.
"""

from __future__ import annotations

import numpy as np


def psnr(a, b):
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    return -10.0 * np.log10(mse)


def _smooth_field(rng, h, w, waves, max_freq):
    yy = np.linspace(0.0, 1.0, h)[:, None]
    xx = np.linspace(0.0, 1.0, w)[None, :]
    out = np.zeros((h, w))
    for _ in range(waves):
        fy, fx = rng.uniform(-max_freq, max_freq, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.5, 1.0) / waves
        out += amp * np.cos(2.0 * np.pi * fy * yy + phase) * np.cos(2.0 * np.pi * fx * xx)
    return out


def frame(rng, h, w):
    """(1, 3, h, w) float32 frame on [0, 1]."""
    base = 0.5 + 0.25 * _smooth_field(rng, h, w, waves=12, max_freq=4.0)
    for _ in range(64):
        rh, rw = int(rng.integers(h // 32, h // 8)), int(rng.integers(w // 32, w // 8))
        top, left = int(rng.integers(0, h - rh)), int(rng.integers(0, w - rw))
        base[top:top + rh, left:left + rw] += rng.uniform(-0.08, 0.08)
    base += 0.03 * _smooth_field(rng, h, w, waves=2, max_freq=min(h, w) / 6.0)
    img = np.empty((1, 3, h, w), dtype=np.float32)
    for c in range(3):
        tint = 0.03 * _smooth_field(rng, h, w, waves=2, max_freq=2.0)
        img[0, c] = np.clip(base + tint, 0.0, 1.0)
    return img


def prediction(rng, x, target_db):
    """Shifted, spatially unevenly noisy copy of ``x`` at ``target_db`` PSNR."""
    _, _, h, w = x.shape
    dy, dx = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
    shifted = np.roll(x, (dy, dx), axis=(2, 3)).astype(np.float64)
    shifted = 0.5 * (shifted + np.roll(shifted, 1, axis=3))  # half-pixel blur
    amp = np.clip(1.0 + 1.5 * _smooth_field(rng, h, w, waves=4, max_freq=3.0), 0.1, None)
    noise = amp[None, None] * rng.standard_normal(x.shape)
    err = (shifted - x) + 0.05 * noise
    want = 10.0 ** (-target_db / 10.0)
    alpha = np.sqrt(want / float(np.mean(err ** 2)))
    return np.clip(x + alpha * err, 0.0, 1.0).astype(np.float32)


def training_pairs(rng, count, patch=32, high_db=33.0, low_db=27.0):
    """``count`` (x, prediction) pairs of size ``patch``, alternating one
    above and one below the 30 dB routing threshold, so that any run of an
    even number of consecutive pairs holds the same train-d/train-g mix."""
    if count % 2:
        raise ValueError("pair count must be even")
    source = frame(rng, 8 * patch, 8 * patch)
    pairs = []
    for i in range(count):
        top, left = (int(v) for v in rng.integers(0, 7 * patch, size=2))
        x = np.ascontiguousarray(source[:, :, top:top + patch, left:left + patch])
        xt = prediction(rng, x, high_db if i % 2 == 0 else low_db)
        pairs.append((x, xt))
    return pairs


def coding_pair(rng, h, w, target_db=30.0):
    """One full-size (frame, prediction) pair for the coding workloads."""
    x = frame(rng, h, w)
    return x, prediction(rng, x, target_db)

