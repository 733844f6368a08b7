"""Seeded decode fuzz: truncated, bit-flipped and header-patched containers
and checkpoints, built from real desk encodes, either decode or raise a
package error, each case within a wall-time and a memory ceiling."""

import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from gdclab import coders as CD
from gdclab import fileio as F
from gdclab.errors import GdclabError

SIZE = 64
# the latent gain widens the supports, so the tables are not trivial: y
# spans -6..5 (diff) to -42..42 (codecnet) on the 64x64 frame below
GAIN = 40.0
QT_LAMBDA = 300.0
CASE_SECONDS = 2.0
CASE_PEAK_BYTES = 64 << 20
CONTAINER_HEADER = 40
CHECKPOINT_HEADER = 64
CONTAINER_CASES = 40
CHECKPOINT_CASES = 500


def with_gain(arrays, g):
    """Scale the last analysis layer by g and the first synthesis layer by
    1/g: the same coder with its latents g times wider."""
    out = {n: a.copy() for n, a in arrays.items()}
    out["enc.3.w"] *= g
    out["enc.3.b"] *= g
    out["dec.0.w"] /= g
    return out


def mutate(data, rng, header):
    """Truncate at a random length, flip 1-8 bits, or write 1-3 random
    bytes into the first ``header`` bytes."""
    op = int(rng.integers(3))
    if op == 0:
        return data[:int(rng.integers(len(data)))]
    buf = bytearray(data)
    if op == 1:
        for bit in rng.integers(8 * len(buf), size=int(rng.integers(1, 9))).tolist():
            buf[bit // 8] ^= 1 << (bit % 8)
    else:
        for pos in rng.integers(min(header, len(buf)), size=int(rng.integers(1, 4))).tolist():
            buf[pos] = int(rng.integers(256))
    return bytes(buf)


def bounded(fn):
    """Run ``fn`` under the case ceilings; returns "ok" or the name of the
    package error it raised.  Any other exception fails the case."""
    tracemalloc.reset_peak()
    start = time.perf_counter()
    try:
        with np.errstate(all="ignore"):
            fn()
        outcome = "ok"
    except GdclabError as e:
        outcome = type(e).__name__
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    assert elapsed <= CASE_SECONDS, elapsed
    assert peak <= CASE_PEAK_BYTES, peak
    return outcome


@pytest.fixture(scope="module")
def traced():
    tracemalloc.start()
    yield
    tracemalloc.stop()


def fuzz(data, header, seed, cases, run):
    """Check that ``run`` accepts ``data`` itself, then count the outcomes
    of ``cases`` seeded mutations of it."""
    rng = np.random.default_rng(seed)
    assert bounded(lambda: run(data)) == "ok"
    return Counter(bounded(lambda: run(mutate(data, rng, header))) for _ in range(cases))


@pytest.mark.parametrize("kind, qt_lambda", [(k, None) for k in CD.KINDS] + [("xgdc", QT_LAMBDA)])
def test_hostile_containers(traced, kind, qt_lambda):
    rng = np.random.default_rng(0)
    x = rng.uniform(0.1, 0.9, size=(1, 3, SIZE, SIZE)).astype(np.float32)
    xt = np.clip(x + rng.normal(scale=0.05, size=x.shape), 0, 1).astype(np.float32)
    cfg = CD.CoderConfig.desk(kind)
    coder = CD.Coder.from_arrays(cfg, with_gain(CD.Coder.new(cfg, seed=1).params.arrays(), GAIN))
    container, _ = coder.encode(x, xt, qt_lambda=qt_lambda)
    assert (container.qt_bits is not None) == (qt_lambda is not None)

    def decode(data):
        # a container that decodes without error decodes to finite pixels
        out = coder.decode(xt, F.BitstreamContainer.from_bytes(data))
        for t in (out.x_hat_d, out.x_hat_g, out.x_hat_merged):
            assert t is None or np.isfinite(t.data).all()

    outcomes = fuzz(container.to_bytes(), CONTAINER_HEADER, 1, CONTAINER_CASES, decode)
    assert len(outcomes) > 1, outcomes


def test_hostile_checkpoints(traced):
    cfg = CD.CoderConfig.desk("xgdc")
    data = F.checkpoint_bytes(CD.Coder.new(cfg, seed=1).params.arrays())
    outcomes = fuzz(data, CHECKPOINT_HEADER, 2, CHECKPOINT_CASES,
                    lambda blob: CD.Coder.from_arrays(cfg, F.parse_checkpoint(blob)))
    assert outcomes["ok"] and len(outcomes) > 1, outcomes
