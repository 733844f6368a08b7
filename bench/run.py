"""gdclab benchmark: run one workload in this process and print its metrics.

    python3 bench/run.py --workload code-512-xgdc --seed 1 --seconds 20 --trace 0

Workloads (closed loops, one client, one process; inputs from --seed):

  train-desk32   train_epoch blocks of 4 steps (2 train-d + 2 train-g pairs)
                 of the desk xgdc fixture on 32x32 pairs; no range coding.
  code-512-xgdc  512x512 round trips through the xgdc fixture with the
                 quad-tree merge at a fixed lambda.
  code-hd-diff   1088x1920 round trips through the diff fixture.

Every operation is checked: each coded frame goes through to_bytes and
from_bytes and must decode to the encoder-side reconstructions bit for bit,
and repeating an input must reproduce its bytes (or training losses)
exactly.  A mismatch, an exception or a non-finite loss is a failed
operation.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the run measures half its time untraced, then installs spans
(see spans.py) for the other half and reports per-layer metrics plus the
tracing overhead.  Earlier lines are JSON records of the environment and
the fixture figures.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()

# One BLAS thread, set before numpy loads, the same on every commit.  On the
# 2-CPU machine the benchmark was defined on, two threads did not make the
# HD round trip measurably faster (median 9.6-10.0 s against 9.7-10.2 s)
# and leave no CPU for the rest of the machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gdclab  # noqa: E402
from gdclab import coders as CD  # noqa: E402
from gdclab import fileio as F  # noqa: E402
from gdclab import training as TR  # noqa: E402

import inputs  # noqa: E402
import spans as TRACE  # noqa: E402
from make_fixtures import FIXTURE_DIR as FIXTURES, coder_config  # noqa: E402

# Set-up = imports + median of SETUP_REPEATS repetitions of (fixture load,
# input generation) + one full-size warm-up operation.  The warm-up runs
# once: its point is to take the cost of the process's first operation out
# of the timed loop.
SETUP_REPEATS = 3


class Mismatch(Exception):
    """An operation's output failed the benchmark's correctness check."""


def load_fixture(kind):
    """Fixture coder from its checkpoint and .cfg sidecar."""
    path = os.path.join(FIXTURES, f"{kind}.ckpt")
    arrays = F.load_checkpoint(path)
    coder = CD.Coder.new(coder_config(F.ExperimentConfig.from_file(path + ".cfg")), seed=0)
    coder.params.load_arrays(arrays)
    return coder, arrays


def same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class TrainWorkload:
    """Blocks of consecutive train_epoch steps from the xgdc fixture.

    Every block restarts from the fixture weights and a fresh optimizer,
    so a block's losses depend only on its pairs: the timing stays at a
    fixed point of training however many blocks a run completes, and a
    repeated block must reproduce its losses bit for bit.
    """

    block_steps = 4     # two pairs above and two below the 30 dB threshold
    blocks = 4          # distinct blocks; operations cycle through them
    patch = 32

    def __init__(self, name):
        self.name = name

    def prepare(self, seed):
        self.coder, self.arrays = load_fixture("xgdc")
        pairs = inputs.training_pairs(np.random.default_rng(seed),
                                      self.block_steps * self.blocks, self.patch)
        for i, (x, xt) in enumerate(pairs):
            want = "train-d" if i % 2 == 0 else "train-g"
            if TR.select_xgdc_target(x, xt) != want:
                raise Mismatch(f"pair {i} does not route to {want}")
        self.block_pairs = [pairs[i:i + self.block_steps]
                            for i in range(0, len(pairs), self.block_steps)]
        self.cfg = TR.TrainConfig(steps=self.block_steps, seed=seed, patch=self.patch)
        self.seen = {}

    @property
    def keys(self):
        return self.blocks

    def op(self, i):
        key = i % self.blocks
        self.coder.params.load_arrays(self.arrays)
        t0 = time.perf_counter()
        stats, _ = TR.train_epoch(self.coder, self.block_pairs[key], self.cfg)
        block_s = time.perf_counter() - t0
        losses = np.asarray(stats.losses)
        if not np.all(np.isfinite(losses)):
            raise Mismatch(f"block {key}: non-finite loss")
        if stats.mode_d_fraction != 0.5:
            raise Mismatch(f"block {key}: train-d fraction {stats.mode_d_fraction}")
        first = self.seen.setdefault(key, losses)
        if not same_array(first, losses):
            raise Mismatch(f"block {key}: losses differ from its first run")
        return {"key": key, "op_s": block_s, "steps": stats.steps,
                "pixels": stats.steps * self.patch ** 2,
                "bpp": stats.mean_bpp, "psnr": stats.mean_psnr}


class CodeWorkload:
    """Full-size frame round trips: encode, to_bytes, from_bytes, decode,
    verify.  Operations cycle through a few seeded (frame, prediction)
    pairs."""

    def __init__(self, name, kind, height, width, pairs, qt_lambda=None):
        self.name = name
        self.kind = kind
        self.height = height
        self.width = width
        self.pairs = pairs
        self.qt_lambda = qt_lambda
        self.tamper = None   # bytes -> bytes; the self-check corrupts containers

    def prepare(self, seed):
        self.coder, _ = load_fixture(self.kind)
        rng = np.random.default_rng(seed)
        self.inputs = [inputs.coding_pair(rng, self.height, self.width)
                       for _ in range(self.pairs)]
        self.seen = {}

    @property
    def keys(self):
        return self.pairs

    def op(self, i):
        key = i % self.pairs
        x, xt = self.inputs[key]
        t0 = time.perf_counter()
        container, enc = self.coder.encode(x, xt, qt_lambda=self.qt_lambda)
        data = container.to_bytes()
        if self.tamper is not None:
            data = self.tamper(data)
        parsed = F.BitstreamContainer.from_bytes(data)
        t1 = time.perf_counter()
        dec = self.coder.decode(xt, parsed)
        t2 = time.perf_counter()
        for attr in ("x_hat_d", "x_hat_g", "x_hat_merged"):
            a, b = getattr(enc, attr), getattr(dec, attr)
            if (a is None) != (b is None) or (a is not None and not same_array(a.data, b.data)):
                raise Mismatch(f"frame {key}: decoded {attr} differs from the encoder's")
        if self.qt_lambda is not None and dec.x_hat_merged is None:
            raise Mismatch(f"frame {key}: container has no quad-tree")
        if self.seen.setdefault(key, data) != data:
            raise Mismatch(f"frame {key}: bytes differ from its first encoding")
        recon = enc.x_hat_merged if enc.x_hat_merged is not None else enc.single()
        area = self.height * self.width
        py, pz = container.payload_y, container.payload_z
        est = py.est_bits + pz.est_bits
        payload = len(py.stream) + len(pz.stream)
        qt_bits = len(container.qt_bits) if container.qt_bits is not None else 0
        return {"key": key, "op_s": t2 - t0, "encode_ms": (t1 - t0) * 1e3,
                "decode_ms": (t2 - t1) * 1e3, "pixels": area, "steps": 1,
                "bpp": len(data) * 8 / area, "psnr": inputs.psnr(recon.data, x),
                "y_support": (py.lo, py.hi), "z_support": (pz.lo, pz.hi),
                "y_symbols": py.symbol_count, "z_symbols": pz.symbol_count,
                "side_bits": qt_bits,
                "mode_d": enc.qt_result.mode_d_fraction if enc.qt_result else None,
                "layer": {"rangecoder.payload_bytes": payload,
                          "rangecoder.est_bits": est,
                          "rangecoder.actual_over_est_pct": (8 * payload / est - 1) * 100,
                          "evaluation.qt_side_bits": qt_bits,
                          "evaluation.qt_mode_d_fraction":
                              enc.qt_result.mode_d_fraction if enc.qt_result else 0.0,
                          "fileio.container_bytes": len(data)}}


WORKLOADS = {
    "train-desk32": lambda: TrainWorkload("train-desk32"),
    "code-512-xgdc": lambda: CodeWorkload("code-512-xgdc", "xgdc", 512, 512, pairs=3,
                                          qt_lambda=300.0),
    "code-hd-diff": lambda: CodeWorkload("code-hd-diff", "diff", 1088, 1920, pairs=2),
}

# Minimal sizes for the self-check (bench/selfcheck.py), not for measuring.
SMOKE = {
    "train-desk32": lambda: TrainWorkload("train-desk32"),
    "code-512-xgdc": lambda: CodeWorkload("code-512-xgdc", "xgdc", 128, 128, pairs=2,
                                          qt_lambda=300.0),
    "code-hd-diff": lambda: CodeWorkload("code-hd-diff", "diff", 256, 384, pairs=2),
}


# ---------------------------------------------------------------------------
# checks on the fixture's latents
# ---------------------------------------------------------------------------

def fixture_problems(name, records):
    """Reasons the fixture no longer exercises what the workload is for."""
    problems = []
    for r in records:
        if "y_support" not in r:
            continue
        (ylo, yhi), (zlo, zhi) = r["y_support"], r["z_support"]
        if ylo > -4 or yhi < 4:
            problems.append(f"frame {r['key']}: y support {r['y_support']} narrower than +-4")
        if zlo > -2 or zhi < 2:
            problems.append(f"frame {r['key']}: z support {r['z_support']} narrower than +-2")
        if r["side_bits"] > 0xFFFF:
            problems.append(f"frame {r['key']}: {r['side_bits']} side bits exceed 65535")
        if name == "code-512-xgdc" and not 0.1 < r["mode_d"] < 0.9:
            problems.append(f"frame {r['key']}: mode-d fraction {r['mode_d']:.3f} "
                            f"outside (0.1, 0.9)")
    return problems


def fixture_summary(records):
    code = [r for r in records if "y_support" in r]
    if not code:
        return {}
    return {
        "y_support": [min(r["y_support"][0] for r in code), max(r["y_support"][1] for r in code)],
        "z_support": [min(r["z_support"][0] for r in code), max(r["z_support"][1] for r in code)],
        "y_symbols": code[0]["y_symbols"], "z_symbols": code[0]["z_symbols"],
        "side_bits": [min(r["side_bits"] for r in code), max(r["side_bits"] for r in code)],
        "mode_d_fraction": sorted({round(r["mode_d"], 4) for r in code
                                   if r["mode_d"] is not None}),
        "actual_over_est_pct": sorted({round(r["layer"]["rangecoder.actual_over_est_pct"], 3)
                                       for r in code}),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Loop:
    """Closed-loop runner: counts attempted and failed operations."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.next_op = 0
        self.by_key = {}

    def attempt(self, tracer=None):
        """Run the next operation; returns its record, or None if it failed.
        The record's ``ms`` is per training step or per frame."""
        i = self.next_op
        self.next_op += 1
        self.attempted += 1
        if tracer is not None:
            tracer.begin_op()
        try:
            rec = self.wl.op(i)
        except Exception:  # any failure of the code under test is a failed op
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            if tracer is not None:
                tracer.abort_op()
            return None
        if tracer is not None:
            tracer.end_op(rec["steps"], rec.get("layer"))
        rec["ms"] = rec["op_s"] * 1e3 / rec["steps"]
        self.by_key.setdefault(rec["key"], rec)
        return rec

    def run(self, seconds, min_ops, tracer=None):
        """Operations until ``seconds`` have passed and ``min_ops`` were
        attempted; returns the successful records and the wall seconds."""
        records = []
        t0 = time.perf_counter()
        n = 0
        while n < min_ops or time.perf_counter() - t0 < seconds:
            rec = self.attempt(tracer)
            n += 1
            if rec is not None:
                records.append(rec)
        return records, time.perf_counter() - t0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(records, wall, setup_s, by_key):
    """The end-to-end metrics of one measured phase.  Quality figures
    average every distinct input once, so they do not depend on how many
    operations the phase completed."""
    firsts = list(by_key.values())
    return {
        "setup_s": setup_s,
        "op_ms_p50": statistics.median(r["ms"] for r in records),
        "mpix_per_s": sum(r["pixels"] for r in records) / 1e6 / wall,
        "peak_rss_mb": peak_rss_mb(),
        "bpp": statistics.fmean(r["bpp"] for r in firsts),
        "psnr_db": statistics.fmean(r["psnr"] for r in firsts),
    }


UNITS = {"setup_s": "s", "op_ms_p50": "ms", "mpix_per_s": "Mpixel/s",
         "peak_rss_mb": "MB", "bpp": "bits/pixel", "psnr_db": "dB"}


def breakdown(records, wall):
    """Figures printed beside the metrics: sample counts, the per-stage
    split of an operation and the highest percentile with at least ten
    samples beyond it."""
    ms = sorted(r["ms"] for r in records)
    out = {"ops": len(records), "op_ms_p50": statistics.median(ms)}
    if len(ms) >= 100:
        out["op_ms_p90"] = statistics.quantiles(ms, n=10)[-1]
    for stage in ("encode_ms", "decode_ms"):
        if stage in records[0]:
            out[f"{stage}_p50"] = statistics.median(r[stage] for r in records)
    if "encode_ms" not in records[0]:
        out["train_steps_per_s"] = sum(r["steps"] for r in records) / wall
    return out


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def emit(kind, payload):
    print(json.dumps({kind: payload}), flush=True)


def layer_metrics(tracer, records, wall, untraced, untraced_rss, install_s, by_key):
    """Per-layer medians of the traced phase, and the traced-minus-untraced
    difference of each end-to-end metric as the tracing overhead."""
    rows = tracer.per_op()
    if not rows or not untraced:
        return {}
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    traced = end_to_end(records, wall, untraced["setup_s"], by_key)
    overhead = {k: traced[k] - untraced[k] for k in ("op_ms_p50", "mpix_per_s")}
    overhead["setup_s"] = install_s
    overhead["peak_rss_mb"] = traced["peak_rss_mb"] - untraced_rss
    # the same input traced and untraced must give the same quality figures
    for k, field in (("bpp", "bpp"), ("psnr_db", "psnr")):
        diffs = [r[field] - by_key[r["key"]][field] for r in records]
        overhead[k] = statistics.fmean(diffs)
    for k, v in overhead.items():
        out[f"trace.overhead.{k}"] = v
    return {k: {"value": float(v), "unit": LAYER_UNITS.get(k) or _unit(k)}
            for k, v in out.items()}


LAYER_UNITS = {"entropy.build_cdfs_peak_mb": "MB", "entropy.cdf_cells": "count",
               "entropy.context_useful_ratio": "ratio",
               "rangecoder.actual_over_est_pct": "%", "rangecoder.est_bits": "bits",
               "rangecoder.payload_bytes": "bytes", "fileio.container_bytes": "bytes",
               "evaluation.qt_side_bits": "bits", "evaluation.qt_mode_d_fraction": "ratio"}


def _unit(name):
    if name.startswith("trace.overhead."):
        return UNITS[name[len("trace.overhead."):]]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us_per_symbol"):
        return "us"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal input sizes, for the self-check only")
    args = ap.parse_args(argv)
    if not os.path.samefile(os.path.dirname(gdclab.__file__), os.path.join(SRC, "gdclab")):
        raise SystemExit(f"gdclab imported from {gdclab.__file__}, not {SRC}")

    saved = TRACE.originals()
    import_s = time.perf_counter() - T_START
    wl = (SMOKE if args.smoke else WORKLOADS)[args.workload]()
    loop = Loop(wl)
    reps = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.prepare(args.seed)
        reps.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    warm = loop.attempt()   # the process's first full-size operation, untimed
    warm_s = time.perf_counter() - t0
    setup_s = import_s + statistics.median(reps) + warm_s
    emit("env", environment())

    if args.trace == 0:
        records, wall = loop.run(args.seconds, wl.keys)
        TRACE.assert_untouched(saved)
        metrics = end_to_end(records, wall, setup_s, loop.by_key) if records else {}
        info = breakdown(records, wall) if records else {}
        out = {k: {"value": float(v), "unit": UNITS[k]} for k, v in metrics.items()}
    else:
        half = args.seconds / 2
        base, wall_a = loop.run(half, 1)
        TRACE.assert_untouched(saved)
        untraced = end_to_end(base, wall_a, setup_s, loop.by_key) if base else {}
        untraced_rss = peak_rss_mb()
        t0 = time.perf_counter()
        tracer = TRACE.Tracer()
        tracer.install()
        install_s = time.perf_counter() - t0
        try:
            records, wall = loop.run(half, 1, tracer)
        finally:
            tracer.restore()
        TRACE.assert_untouched(saved)
        out = layer_metrics(tracer, records, wall, untraced, untraced_rss, install_s,
                            loop.by_key)
        info = breakdown(records, wall) if records else {}
    problems = fixture_problems(wl.name, list(loop.by_key.values()))
    for p in problems:
        print(f"fixture check failed: {p}", file=sys.stderr)
    emit("fixture", fixture_summary(list(loop.by_key.values())))
    emit("info", {**info, "setup": {"import_s": import_s, "prepare_s": reps,
                                    "warm_up_s": warm_s, "warm_up_ok": warm is not None}})
    correct = loop.failed == 0 and not problems and bool(out)
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": out}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
