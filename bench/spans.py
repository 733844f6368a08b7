"""Spans around the library's public functions, installed from outside.

The benchmark never edits the package.  For a traced run it replaces
module attributes (functions, and methods on classes) with thin wrappers
that record one span per call: (name, start, end, parent index).  Spans
stay in memory and are reduced after the run; ``restore`` puts every
original object back.  An untraced run calls ``assert_untouched`` to prove
it saw the original function objects.

Operations (one frame round trip, or one block of training steps) are
delimited with ``begin_op`` / ``end_op``; counters reported by ``after``
hooks accumulate into the current operation.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from gdclab import coders, entropy, evaluation, fileio, layers, tensor, training

# Layer functions whose span is reported as self time: gdn and
# masked_conv2d call conv2d, and the report separates the two.
SELF_TIMED = ("layers.conv2d", "layers.tconv2d", "layers.gdn",
              "layers.masked_conv2d", "layers.prelu")

NET_PREFIXES = ("enc", "dec", "hyp_enc", "hyp_dec", "ctx", "gd", "gs")


def _escapes(values, lo, hi):
    v = np.asarray(values)
    return int(np.count_nonzero((v < lo) | (v > hi)))


def _count_encode(counts, args, kwargs, result):
    _, (lo, hi) = result
    n = np.asarray(args[0]).size
    counts["rangecoder.symbols_encoded"] += n + 4 * _escapes(args[0], lo, hi)


def _count_decode_gaussian(counts, args, kwargs, result):
    lo, hi = (int(v) for v in args[3])
    counts["rangecoder.symbols_decoded"] += result.size + 4 * _escapes(result, lo, hi)


def _count_decode_context(counts, args, kwargs, result):
    lo, hi = (int(v) for v in args[3])
    counts["rangecoder.symbols_decoded"] += result.size + 4 * _escapes(result, lo, hi)
    counts["entropy.context_symbols_decoded"] += result.size


def _count_cdfs(counts, args, kwargs, result):
    counts["entropy.cdf_cells"] += result.shape[0] * (result.shape[1] - 1)


class Tracer:
    """Span recorder for the package's public functions while installed."""

    def __init__(self):
        self.spans = []
        self.ops = []
        self._stack = []
        self._counts = None
        self._op_start = 0
        self._patches = []
        self._cdf_rows_traced = 0

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, name, after=None, around=None):
        raw = owner.__dict__[attr]
        target = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            ctx = around(args) if around else None
            idx = len(spans)
            spans.append([label, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = target(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
                if ctx is not None:
                    ctx()
            if after is not None and self._counts is not None:
                after(self._counts, args, kwargs, result)
            return result

        setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
        self._patches.append((owner, attr, raw))

    def _points(self):
        """(owner, attribute, span name, after hook, around hook) for every
        public function the benchmark traces."""
        pts = [(tensor, "backward", "tensor.backward", None, None)]
        pts += [(layers, fn, f"layers.{fn}", None, None)
                for fn in ("conv2d", "tconv2d", "gdn", "masked_conv2d", "prelu")]
        pts += [
            (layers.Network, "__call__", lambda args: f"layers.net.{args[0].prefix}",
             None, None),
            (entropy, "gaussian_bits", "entropy.gaussian_bits", None, None),
            (entropy, "context_bits", "entropy.context_bits", None, None),
            (entropy, "encode_gaussian", "entropy.encode_gaussian", _count_encode, None),
            (entropy, "decode_gaussian", "entropy.decode_gaussian",
             _count_decode_gaussian, None),
            (entropy, "encode_context", "entropy.encode_context", _count_encode, None),
            (entropy, "decode_context", "entropy.decode_context",
             _count_decode_context, None),
            (entropy, "build_cdfs", "entropy.build_cdfs", _count_cdfs, self._cdf_memory),
            (entropy, "context_params", "entropy.context_params",
             self._count_context, None),
            (coders.Coder, "forward", "coders.forward", None, None),
            (coders.Coder, "encode", "coders.encode", None, None),
            (coders.Coder, "decode", "coders.decode", None, None),
            (training, "rd_loss", "training.rd_loss", None, None),
            (training, "adam_step", "training.adam_step", None, None),
        ]
        pts += [(evaluation, fn, f"evaluation.{fn}", None, None)
                for fn in ("quadtree_search", "serialize_quadtree", "parse_quadtree",
                           "merge_reconstructions")]
        pts += [(fileio.BitstreamContainer, fn, f"fileio.{fn}", None, None)
                for fn in ("to_bytes", "from_bytes")]
        return pts

    def install(self):
        for point in self._points():
            self._patch(*point)

    def restore(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- hooks --------------------------------------------------------------

    def _cdf_memory(self, args):
        """Trace allocations only for a build_cdfs call larger than any
        traced before in this operation, so the per-call cost of tracemalloc
        does not land on the many small context-decoding calls."""
        rows = np.asarray(args[0]).size
        if rows <= self._cdf_rows_traced:
            return None
        self._cdf_rows_traced = rows
        tracemalloc.start()

        def done():
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
            tracemalloc.stop()
            c = self._counts
            c["entropy.build_cdfs_peak_mb"] = max(c["entropy.build_cdfs_peak_mb"], peak)
        return done

    def _count_context(self, counts, args, kwargs, result):
        _, c, h, w = np.shape(args[1])
        counts["entropy.context_positions_computed"] += h * w
        if any(self.spans[i][0] == "entropy.decode_context" for i in self._stack):
            counts["entropy.context_cells_in_decode"] += c * h * w

    # -- operations ---------------------------------------------------------

    def begin_op(self):
        self._counts = defaultdict(float)
        self._op_start = len(self.spans)
        self._cdf_rows_traced = 0

    def end_op(self, scale=1.0, extra=None):
        """Close the operation; ``scale`` divides every span figure (steps
        per block), ``extra`` adds per-operation figures measured outside."""
        self._counts.update(extra or {})
        self.ops.append((self._op_start, len(self.spans), self._counts, scale))
        self._counts = None

    def abort_op(self):
        """Drop a failed operation from the figures."""
        self._counts = None

    # -- reduction ----------------------------------------------------------

    def per_op(self):
        """One dict of figures per operation (times in ms)."""
        spans = self.spans
        child = np.zeros(len(spans))
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        rows = []
        for first, last, counts, scale in self.ops:
            total = defaultdict(float)
            own = defaultdict(float)
            calls = defaultdict(int)
            for i in range(first, last):
                name, t0, t1, _ = spans[i]
                total[name] += t1 - t0
                own[name] += t1 - t0 - child[i]
                calls[name] += 1
            rows.append(_figures(total, own, calls, counts, scale))
        return rows


def _figures(total, own, calls, counts, scale):
    f = {}
    ms = 1e3 / scale
    for name in ("tensor.backward", "training.adam_step", "training.rd_loss",
                 "coders.forward", "coders.encode", "coders.decode",
                 "entropy.encode_gaussian", "entropy.decode_gaussian",
                 "entropy.encode_context", "entropy.decode_context",
                 "entropy.build_cdfs", "entropy.gaussian_bits", "entropy.context_bits",
                 "evaluation.quadtree_search", "evaluation.serialize_quadtree",
                 "evaluation.merge_reconstructions", "evaluation.parse_quadtree",
                 "fileio.to_bytes", "fileio.from_bytes"):
        f[f"{name}_ms"] = total[name] * ms
    for name in SELF_TIMED:
        f[f"{name}_ms"] = own[name] * ms
    for prefix in NET_PREFIXES:
        f[f"layers.net.{prefix}_ms"] = total[f"layers.net.{prefix}"] * ms
    for name in ("layers.conv2d", "layers.tconv2d", "entropy.build_cdfs",
                 "entropy.context_params"):
        f[f"{name}_calls"] = calls[name] / scale
    for name in ("entropy.cdf_cells", "entropy.context_positions_computed",
                 "rangecoder.symbols_encoded", "rangecoder.symbols_decoded"):
        f[name] = counts[name] / scale
    f["entropy.build_cdfs_peak_mb"] = counts["entropy.build_cdfs_peak_mb"]
    cells = counts["entropy.context_cells_in_decode"]
    f["entropy.context_useful_ratio"] = (
        counts["entropy.context_symbols_decoded"] / cells if cells else 0.0)
    enc_self = own["entropy.encode_gaussian"] + own["entropy.encode_context"]
    dec_self = own["entropy.decode_gaussian"] + own["entropy.decode_context"]
    n_enc, n_dec = counts["rangecoder.symbols_encoded"], counts["rangecoder.symbols_decoded"]
    f["rangecoder.encode_us_per_symbol"] = enc_self * 1e6 / n_enc if n_enc else 0.0
    f["rangecoder.decode_us_per_symbol"] = dec_self * 1e6 / n_dec if n_dec else 0.0
    for name in ("rangecoder.payload_bytes", "rangecoder.est_bits",
                 "rangecoder.actual_over_est_pct", "evaluation.qt_side_bits",
                 "evaluation.qt_mode_d_fraction", "fileio.container_bytes"):
        f[name] = counts[name]
    return f


def originals():
    """The objects the tracer would replace, keyed by (owner, attribute)."""
    return {(owner, attr): owner.__dict__[attr] for owner, attr, *_ in Tracer()._points()}


def assert_untouched(saved):
    """Raise unless every traced attribute is the original object again."""
    for (owner, attr), raw in saved.items():
        if owner.__dict__[attr] is not raw:
            raise AssertionError(f"{owner.__name__}.{attr} is not the original object")
