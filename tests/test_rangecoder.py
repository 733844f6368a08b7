"""Lane-interleaved rANS (the range variant of asymmetric numeral systems):
round trips, rate bounds, and stream error contracts."""

import numpy as np
import pytest

from gdclab import rans as R
from gdclab.errors import StreamError

RAW = 0xDEADBEEF


def make_cdf(pmf):
    """Quantize a pmf onto the coder's cumulative grid, every bin nonzero."""
    pmf = np.asarray(pmf, dtype=np.float64)
    counts = np.maximum(1, np.rint(pmf / pmf.sum() * R.CDF_TOTAL).astype(np.int64))
    counts[np.argmax(counts)] += R.CDF_TOTAL - counts.sum()
    return np.concatenate([[0], np.cumsum(counts)])


def table_of(cdfs):
    """One int64 table set from cdfs of possibly different lengths: each
    row padded with empty bins before its last, so the last bin of every
    row is its escape."""
    width = max(len(c) for c in cdfs)
    return np.array([list(c[:-1]) + [c[-2]] * (width - len(c)) + [c[-1]] for c in cdfs],
                    dtype=np.int64)


def encode(syms, rows, table):
    """Code symbol k under row rows[k]; a symbol in the last bin of a table
    is an escape and carries RAW plus its index."""
    syms, rows = np.asarray(syms, dtype=np.int64), np.asarray(rows, dtype=np.int64)
    starts = table[rows, syms]
    last = np.array([np.flatnonzero(np.diff(row))[-1] for row in table])
    escaped = np.flatnonzero(syms == last[rows])
    return R.encode(starts, table[rows, syms + 1] - starts, RAW + escaped), escaped


def code(syms, cdfs):
    """Encode under one table (or a list, one per symbol); decode back one
    symbol per call, each run under its own table."""
    per = isinstance(cdfs, list)
    table = table_of(cdfs if per else [cdfs])
    rows = np.arange(len(syms)) if per else np.zeros(len(syms), dtype=np.int64)
    payload, escaped = encode(syms, rows, table)
    dec = R.Decoder(payload, len(syms), table)
    out, raws = [], []
    for r in rows:
        s, raw = dec.decode(np.array([r]))
        out += s.tolist()
        raws += raw.tolist()
    assert raws == (RAW + escaped).tolist()
    return payload, out


UNIFORM2 = np.array([0, R.CDF_TOTAL // 2, R.CDF_TOTAL])
UNIFORM4 = np.array([0, 16384, 32768, 49152, R.CDF_TOTAL])
# one-bit and two-bit symbols, beside an escape bin of one count
HALVES = np.array([0, 32768, R.CDF_TOTAL - 1, R.CDF_TOTAL])
QUARTERS = np.array([0, 16384, 32768, 49152, R.CDF_TOTAL - 1, R.CDF_TOTAL])


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
        # the bins before each table's escape, which the padding moves
        syms = [int(rng.integers(0, len(c) - 2)) for c in cdfs]
        assert code(syms, cdfs)[1] == syms

    def test_adaptive_tables_via_raw_classes(self):
        # the decoder picks each table from its own previous output,
        # mirroring how the context model conditions on decoded history
        rng = np.random.default_rng(2)
        table = table_of([make_cdf(rng.dirichlet(np.ones(4))) for _ in range(4)])
        syms = rng.integers(0, 3, size=3000)
        rows = np.concatenate([[0], syms[:-1]])
        payload, _ = encode(syms, rows, table)
        dec = R.Decoder(payload, syms.size, table)
        out, prev = [], 0
        for _ in range(syms.size):
            prev = int(dec.decode(np.array([prev]))[0][0])
            out.append(prev)
        assert out == syms.tolist()

    def test_million_symbol_stress(self):
        # 256 lanes, decoded in runs that cut steps at random points
        rng = np.random.default_rng(3)
        table = table_of([make_cdf([0.55, 0.25, 0.15, 0.05])])
        syms = rng.integers(0, 3, size=10**6)
        rows = np.zeros(syms.size, dtype=np.int64)
        payload, _ = encode(syms, rows, table)
        assert R.lane_count(syms.size) == R.MAX_LANES == 256
        dec = R.Decoder(payload, syms.size, table)
        cuts = np.concatenate([[0], np.sort(rng.integers(0, syms.size, 50)), [syms.size]])
        out = np.concatenate([dec.decode(rows[a:b])[0] for a, b in zip(cuts[:-1], cuts[1:])])
        assert np.array_equal(out, syms)

    def test_empty_sequence(self):
        # one lane, holding its initial state
        payload, back = code([], UNIFORM2)
        assert payload == (1 << 16).to_bytes(4, "little")
        assert back == []

    def test_single_symbol_degenerate_cdf(self):
        cdf = np.array([0, R.CDF_TOTAL - 1, R.CDF_TOTAL])
        assert code([1], cdf)[1] == [1]
        assert code([0], cdf)[1] == [0]

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(4)
        syms = rng.integers(0, 2, size=500)
        assert code(syms, UNIFORM4)[0] == code(syms, UNIFORM4)[0]


class TestRateBounds:
    def test_estimate_window(self):
        # payload bits stay within [ideal - 1, ideal + 0.01 * count + 64]
        rng = np.random.default_rng(5)
        for _ in range(25):
            nbins = int(rng.integers(3, 10))
            cdf = make_cdf(rng.dirichlet(np.ones(nbins) * 0.5))
            syms = rng.integers(0, nbins - 1, size=400)
            actual = 8 * len(code(syms, cdf)[0])
            ideal = float(-np.log2(np.diff(cdf)[syms] / R.CDF_TOTAL).sum())
            assert ideal - 1 <= actual <= ideal + 0.01 * len(syms) + 64

    def test_two_bin_uniform_thousand(self):
        # 1000 one-bit symbols: 125 information bytes, and the lane's final
        # state costs 2 to 4 bytes more
        syms = np.random.default_rng(6).integers(0, 2, size=1000)
        payload = code(syms, HALVES)[0]
        assert 125 <= len(payload) <= 137
        assert 1000 - 1 <= 8 * len(payload) <= 1000 + 0.01 * 1000 + 64

    def test_four_bin_uniform_thousand(self):
        # 1000 two-bit symbols: 250 information bytes plus the final state
        syms = np.random.default_rng(7).integers(0, 4, size=1000)
        assert 250 <= len(code(syms, QUARTERS)[0]) <= 254

    def test_skewed_source_compresses(self):
        rng = np.random.default_rng(8)
        pmf = np.array([0.9, 0.05, 0.03, 0.02])
        syms = rng.choice(4, size=2000, p=pmf)
        payload = code(syms, make_cdf(pmf))[0]
        # far below the 2 bits/symbol of a flat 4-bin code
        assert 8 * len(payload) < 0.75 * 2 * len(syms)


class TestContracts:
    """Decoding treats the payload as hostile: each integrity check raises
    StreamError by itself."""

    def payload(self, syms, cdf=QUARTERS):
        table = table_of([cdf])
        rows = np.zeros(len(syms), dtype=np.int64)
        return encode(syms, rows, table)[0], table, rows

    def test_truncated_payload_raises(self):
        with pytest.raises(StreamError):
            R.Decoder(b"\x00\x01", 1, table_of([UNIFORM2]))
        payload, table, rows = self.payload([0, 1, 2, 3] * 10)
        dec = R.Decoder(payload[:-2], 40, table)
        with pytest.raises(StreamError):
            dec.decode(rows)

    def test_odd_length(self):
        payload, table, rows = self.payload([0, 1, 2, 3])
        with pytest.raises(StreamError, match="odd length"):
            R.Decoder(payload + b"\x00", 4, table)

    def test_shorter_than_its_lane_states(self):
        # 2,048 symbols run 4 lanes, whose states take 16 bytes
        assert R.lane_count(2048) == 4
        with pytest.raises(StreamError, match="cannot hold 4 lane states"):
            R.Decoder(bytes(14), 2048, table_of([QUARTERS]))

    def test_read_crosses_the_escape_tail(self):
        # the escape's raw value cut off: the word before it is all the
        # tail there is
        payload, table, rows = self.payload([4])
        dec = R.Decoder(payload[:-4], 1, table)
        with pytest.raises(StreamError, match="crosses the escape tail"):
            dec.decode(rows)
        # and a renormalisation read that would run into the tail
        payload, table, rows = self.payload([0] * 40 + [4])
        dec = R.Decoder(payload[:8] + payload[-4:], 41, table)
        with pytest.raises(StreamError, match="crosses the escape tail"):
            dec.decode(rows)

    def test_lane_does_not_end_in_its_initial_state(self):
        payload, table, rows = self.payload([0, 1])
        state = int.from_bytes(payload[:4], "little") + 1
        dec = R.Decoder(state.to_bytes(4, "little") + payload[4:], 2, table)
        with pytest.raises(StreamError, match="initial state"):
            dec.decode(rows)

    def test_words_left_unread(self):
        payload, table, rows = self.payload([0, 1, 2, 3] * 10)
        dec = R.Decoder(payload + b"\x00\x00", 40, table)
        with pytest.raises(StreamError, match="1 rANS words left unread"):
            dec.decode(rows)

    def test_decoding_past_the_count(self):
        payload, table, rows = self.payload([0, 1])
        dec = R.Decoder(payload, 2, table)
        dec.decode(rows[:1])
        with pytest.raises(StreamError, match="past the payload's 2 symbols"):
            dec.decode(rows)
