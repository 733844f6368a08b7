"""Range coder round trips, rate bounds, and stream error contracts."""

import numpy as np
import pytest

from gdclab import rangecoder as R
from gdclab.errors import StreamError


def make_cdf(pmf):
    """Quantize a pmf onto the coder's cumulative grid, every bin nonzero."""
    pmf = np.asarray(pmf, dtype=np.float64)
    counts = np.maximum(1, np.rint(pmf / pmf.sum() * R.CDF_TOTAL).astype(np.int64))
    counts[np.argmax(counts)] += R.CDF_TOTAL - counts.sum()
    return np.concatenate([[0], np.cumsum(counts)])


def encode_one(enc, symbol, cdf):
    """Code one symbol as a one-interval run."""
    enc.encode_intervals((int(cdf[symbol]),), (int(cdf[symbol + 1]) - int(cdf[symbol]),))


def decode_one(dec, cdf):
    """Decode one symbol as a one-row run."""
    out = []
    dec.decode_rows(([int(c) for c in cdf],), out)
    return out[0]


def code(syms, cdfs):
    """Encode under one table (or a list, one per symbol), one symbol per
    call; decode back the same way."""
    tables = cdfs if isinstance(cdfs, list) else [cdfs] * len(syms)
    enc = R.RangeEncoder()
    for s, t in zip(syms, tables):
        encode_one(enc, int(s), t)
    payload = enc.finish()
    dec = R.RangeDecoder(payload)
    return payload, [decode_one(dec, t) for t in tables]


UNIFORM2 = np.array([0, R.CDF_TOTAL // 2, R.CDF_TOTAL])
UNIFORM4 = np.array([0, 16384, 32768, 49152, R.CDF_TOTAL])


class TestRoundTrip:
    def test_hundred_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            nbins = int(rng.integers(2, 12))
            cdf = make_cdf(rng.dirichlet(np.ones(nbins)))
            syms = rng.integers(0, nbins, size=int(rng.integers(1, 80)))
            assert code(syms, cdf)[1] == list(syms)

    def test_per_symbol_tables(self):
        rng = np.random.default_rng(1)
        cdfs = [make_cdf(rng.dirichlet(np.ones(int(rng.integers(2, 8)))))
                for _ in range(60)]
        syms = [int(rng.integers(0, len(c) - 1)) for c in cdfs]
        assert code(syms, cdfs)[1] == syms

    def test_adaptive_tables_via_raw_classes(self):
        # the decoder reconstructs each table from its own previous output,
        # mirroring how the context model conditions on decoded history
        rng = np.random.default_rng(2)
        tables = [make_cdf(rng.dirichlet(np.ones(3))) for _ in range(3)]
        syms = list(rng.integers(0, 3, size=200))
        enc = R.RangeEncoder()
        prev = 0
        for s in syms:
            encode_one(enc, s, tables[prev])
            prev = s
        payload = enc.finish()

        dec = R.RangeDecoder(payload)
        out, prev = [], 0
        for _ in range(len(syms)):
            s = decode_one(dec, tables[prev])
            out.append(s)
            prev = s
        assert out == syms

    def test_million_symbol_stress(self):
        rng = np.random.default_rng(3)
        syms = rng.integers(0, 4, size=10**6)
        cdf = make_cdf([0.55, 0.25, 0.15, 0.05])
        assert code(syms, cdf)[1] == list(syms)

    def test_empty_sequence(self):
        payload, back = code([], UNIFORM2)
        assert len(payload) == 4
        assert back == []

    def test_single_symbol_degenerate_cdf(self):
        cdf = np.array([0, R.CDF_TOTAL - 1, R.CDF_TOTAL])
        assert code([1], cdf)[1] == [1]

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(4)
        syms = rng.integers(0, 2, size=500)
        assert code(syms, UNIFORM2)[0] == code(syms, UNIFORM2)[0]


class TestRateBounds:
    def test_estimate_window(self):
        # payload bits stay within [ideal - 1, ideal + 0.01 * count + 64]
        rng = np.random.default_rng(5)
        for _ in range(25):
            nbins = int(rng.integers(2, 10))
            cdf = make_cdf(rng.dirichlet(np.ones(nbins) * 0.5))
            syms = rng.integers(0, nbins, size=400)
            actual = 8 * len(code(syms, cdf)[0])
            ideal = float(-np.log2(np.diff(cdf)[syms] / R.CDF_TOTAL).sum())
            assert ideal - 1 <= actual <= ideal + 0.01 * len(syms) + 64

    def test_two_bin_uniform_thousand(self):
        # 1000 one-bit symbols: 125 information bytes, up to 8 slack bytes
        # and a 4-byte flush; the flush can absorb pending output, so the
        # exact length moves by a byte with the data
        syms = np.random.default_rng(6).integers(0, 2, size=1000)
        payload = code(syms, UNIFORM2)[0]
        assert 125 <= len(payload) <= 137
        assert 1000 - 1 <= 8 * len(payload) <= 1000 + 0.01 * 1000 + 64

    def test_four_bin_uniform_thousand(self):
        # 1000 two-bit symbols: 250 information bytes plus flush
        syms = np.random.default_rng(7).integers(0, 4, size=1000)
        assert 250 <= len(code(syms, UNIFORM4)[0]) <= 254

    def test_skewed_source_compresses(self):
        rng = np.random.default_rng(8)
        pmf = np.array([0.9, 0.05, 0.03, 0.02])
        syms = rng.choice(4, size=2000, p=pmf)
        payload = code(syms, make_cdf(pmf))[0]
        # far below the 2 bits/symbol of a flat 4-bin code
        assert 8 * len(payload) < 0.75 * 2 * len(syms)


class TestContracts:
    def test_truncated_payload_raises(self):
        with pytest.raises(StreamError):
            R.RangeDecoder(b"\x00\x01")
        dec = R.RangeDecoder(code([0, 1, 0, 1], UNIFORM2)[0])
        with pytest.raises(StreamError):
            for _ in range(10000):
                decode_one(dec, UNIFORM2)
