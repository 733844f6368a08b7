"""Regenerate the fixture coders in bench/fixtures from fixed seeds.

    python3 bench/make_fixtures.py

The benchmark loads the stored checkpoints instead of building or training
a model at run time, so a change that alters float summation order cannot
silently measure a different model than its parent did.  Rerun this only to
replace the fixtures on purpose; the result depends on the library version
that runs it.

Both coders are desk-sized (core width 32, latent 32, hyper-latent 16).  A
freshly initialized or briefly trained desk coder rounds almost every
latent to zero, which would leave the entropy coder with nothing to do, so
each fixture gets a latent gain: the last analysis layer (``enc.3``) is
multiplied by ``g`` and the first synthesis layer (``dec.0.w``) divided by
it.  ``g`` is calibrated so that the y support of a 512x512 calibration
frame reaches CALIBRATION_SUPPORT.

diff: random initialization, then the gain.
xgdc: 300 Adam steps at lr 1e-3 and lambda 1024 on 32x32 pairs straddling
      the 30 dB routing threshold, so the free (gs) head becomes
      competitive with the prediction-anchored one, then the gain.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from gdclab import coders as CD  # noqa: E402
from gdclab import fileio as F  # noqa: E402
from gdclab import training as TR  # noqa: E402

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
INIT_SEED = 20211215
DATA_SEED = 20211216
CALIBRATION_SUPPORT = 8
TRAIN_STEPS = 300


def desk_config(kind):
    steps = TRAIN_STEPS if kind == "xgdc" else 0
    return F.ExperimentConfig(coder=kind, core_width=32, latent=32, hyper_latent=16,
                              pred_width=32, ctx_width=8, lmbda=1024.0, lr=1e-3,
                              steps=steps, seed=INIT_SEED, patch=32,
                              pairs=max(steps, 1))


def coder_config(ecfg):
    return CD.CoderConfig(kind=ecfg.coder, channels=ecfg.channels,
                          core_width=ecfg.core_width, latent=ecfg.latent,
                          hyper_latent=ecfg.hyper_latent, pred_width=ecfg.pred_width,
                          features=ecfg.features, ctx_width=ecfg.ctx_width,
                          kernel=ecfg.kernel, enc_strides=ecfg.stride_tuple())


def with_gain(arrays, g):
    out = {n: a.copy() for n, a in arrays.items()}
    out["enc.3.w"] *= g
    out["enc.3.b"] *= g
    out["dec.0.w"] /= g
    return out


def y_extent(cfg, arrays, x, xt):
    coder = CD.Coder.from_arrays(cfg, arrays)
    container, _ = coder.encode(x, xt)
    return max(-container.payload_y.lo, container.payload_y.hi)


def calibrate_gain(cfg, arrays, x, xt):
    """Integer gain whose y support on (x, xt) first reaches the target."""
    probe = 64.0
    extent = y_extent(cfg, with_gain(arrays, probe), x, xt)
    g = max(1.0, np.floor(probe * CALIBRATION_SUPPORT / max(extent, 1)))
    while y_extent(cfg, with_gain(arrays, g), x, xt) < CALIBRATION_SUPPORT:
        g += 1.0
    return g


def main():
    rng = np.random.default_rng(DATA_SEED)
    x, xt = inputs.coding_pair(rng, 512, 512)
    pairs = inputs.training_pairs(rng, TRAIN_STEPS)
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    for kind in ("diff", "xgdc"):
        ecfg = desk_config(kind)
        cfg = coder_config(ecfg)
        coder = CD.Coder.new(cfg, seed=INIT_SEED)
        if kind == "xgdc":
            tcfg = TR.TrainConfig(lmbda=ecfg.lmbda, lr=ecfg.lr, steps=ecfg.steps,
                                  seed=INIT_SEED)
            stats, _ = TR.train_epoch(coder, pairs, tcfg)
            print(f"xgdc: {stats.steps} steps, mean loss {stats.mean_loss:.2f}, "
                  f"last loss {stats.losses[-1]:.2f}")
        arrays = coder.params.arrays()
        g = calibrate_gain(cfg, arrays, x, xt)
        path = os.path.join(FIXTURE_DIR, f"{kind}.ckpt")
        F.save_checkpoint(path, with_gain(arrays, g))
        ecfg.save(path + ".cfg")
        print(f"{kind}: gain {g:g}, wrote {path}")


if __name__ == "__main__":
    main()
