"""Entropy model checks: the basic-arithmetic error function and rate
estimates against scipy's error function, quantization rules, coder-table
construction, and round trips through the Gaussian and context coding
paths."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from gdclab import entropy as E
from gdclab import layers as L
from gdclab import tensor as T
from gdclab.errors import (ContractError, FormatError, NumericError, ShapeError,
                           StreamError)
from gdclab import rans
from gdclab.rans import CDF_TOTAL
from gdclab.tensor import Tensor


def t64(arr, grad=False):
    return Tensor(np.asarray(arr), requires_grad=grad)


def raw_of(scale):
    """The raw scale whose softplus puts a Gaussian at ``scale`` (the
    inverse of SCALE_MIN + softplus); scales at or below SCALE_MIN map to
    -40."""
    y = np.asarray(scale, dtype=np.float64) - E.SCALE_MIN
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(y > 0, y + np.log(-np.expm1(-y)), -40.0)


def params(mean, scale, grad=False):
    """The net output that puts Gaussians at ``mean`` and ``scale``: the
    means, then the raw scales, along the channel axis."""
    mean = np.asarray(mean, dtype=np.float64)
    return t64(np.concatenate([mean, raw_of(np.broadcast_to(scale, mean.shape))], axis=1), grad)


def gauss_prob_oracle(v, mu, sigma):
    """Direct error-function evaluation of the integer-bin probability."""
    z_hi = (v - mu + 0.5) / (sigma * np.sqrt(2.0))
    z_lo = (v - mu - 0.5) / (sigma * np.sqrt(2.0))
    return 0.5 * (erf(z_hi) - erf(z_lo))


class TestQuantize:
    def test_round_ties_away_from_zero(self):
        x = t64([[[[2.4, 2.5, -2.5, -0.5]]]])
        out = E.quantize(x, "round")
        assert out.data.reshape(-1).tolist() == [2.0, 3.0, -3.0, -1.0]

    def test_round_fixes_integers(self):
        x = t64([[[[-3.0, 0.0, 7.0, 1.0]]]])
        assert np.array_equal(E.quantize(x, "round").data, x.data)

    def test_noise_bound_and_determinism(self):
        x = t64(np.zeros((2, 3, 4, 4)))
        out1 = E.quantize(x, "noise", rng=np.random.default_rng(9))
        out2 = E.quantize(x, "noise", rng=np.random.default_rng(9))
        assert np.abs(out1.data).max() <= 0.5
        assert np.array_equal(out1.data, out2.data)

    def test_noise_requires_rng(self):
        with pytest.raises(ContractError):
            E.quantize(t64(np.zeros((1, 1, 1, 1))), "noise")

    def test_unknown_mode(self):
        with pytest.raises(ContractError):
            E.quantize(t64(np.zeros((1, 1, 1, 1))), "floor")

    @pytest.mark.parametrize("mode", ["noise", "round"])
    def test_gradient_passes_through(self, mode):
        x = Tensor(np.full((1, 1, 2, 2), 0.3), requires_grad=True)
        out = E.quantize(x, mode, rng=np.random.default_rng(0))
        T.backward(T.sum_all(out))
        assert np.array_equal(x.grad, np.ones((1, 1, 2, 2)))


class TestGaussianBits:
    def test_unit_gaussian_center_bin(self):
        # central bin of a unit Gaussian: p = erf(0.5 / sqrt 2) = 0.38292...
        bits = E.gaussian_bits(t64(np.zeros((1, 1, 1, 1))), params(np.zeros((1, 1, 1, 1)), 1.0))
        assert bits.item() == pytest.approx(1.38486653429099, abs=1e-12)

    def test_matches_erf_oracle_elementwise(self):
        rng = np.random.default_rng(10)
        v = rng.integers(-3, 4, size=(1, 2, 3, 3)).astype(np.float64)
        mu = rng.normal(size=v.shape)
        sigma = rng.uniform(0.2, 2.0, size=v.shape)
        bits = E.gaussian_bits(t64(v), params(mu, sigma))
        want = -np.log2(np.maximum(gauss_prob_oracle(v, mu, sigma), E.PROB_FLOOR))
        assert bits.data == pytest.approx(want, abs=1e-10)

    def test_deep_tail_clamps_to_sixteen(self):
        bits = E.gaussian_bits(t64(np.full((1, 1, 1, 1), 50.0)),
                               params(np.zeros((1, 1, 1, 1)), 1.0))
        assert bits.item() == 16.0

    def test_symmetry_about_mean(self):
        p = params(np.zeros((1, 1, 1, 1)), 0.7)
        plus = E.gaussian_bits(t64(np.full((1, 1, 1, 1), 3.0)), p)
        minus = E.gaussian_bits(t64(np.full((1, 1, 1, 1), -3.0)), p)
        assert plus.item() == pytest.approx(minus.item(), abs=1e-12)

    def test_contracts(self):
        ok = t64(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ShapeError):
            E.gaussian_bits(ok, t64(np.zeros((1, 2, 1, 1))))
        with pytest.raises(ShapeError):
            E.gaussian_bits(ok, t64(np.zeros((1, 1, 2, 2))))
        with pytest.raises(NumericError):
            E.gaussian_bits(ok, params(np.full((1, 1, 2, 2), np.nan), 1.0))
        with pytest.raises(NumericError):
            E.gaussian_bits(ok, t64(np.full((1, 2, 2, 2), np.inf)))
        with pytest.raises(ContractError):
            E.gaussian_bits(ok, t64(np.zeros((1, 2, 2, 2), dtype=np.float32)))

    def test_gradients_via_finite_differences(self):
        # the rate estimate is differentiable w.r.t. the values and the whole
        # net output: means, and raw scales through softplus and the pdf
        rng = np.random.default_rng(11)
        values = t64(rng.uniform(-2.0, 2.0, size=(1, 2, 3, 3)), grad=True)
        p = params(rng.uniform(-0.4, 0.4, size=(1, 2, 3, 3)),
                   rng.uniform(0.5, 1.5, size=(1, 2, 3, 3)), grad=True)

        def f(v, q):
            return T.sum_all(E.gaussian_bits(v, q))

        assert T.grad_check(f, [values, p]) < 1e-5

    def test_clamped_elements_pass_no_gradient(self):
        # an element at the 16-bit ceiling sends a zero share to both inputs
        values = t64(np.array([[[[50.0, 0.3]]]]), grad=True)
        p = params(np.zeros((1, 1, 1, 2)), 1.0, grad=True)
        T.backward(T.sum_all(E.gaussian_bits(values, p)))
        assert values.grad[0, 0, 0, 0] == 0.0 and values.grad[0, 0, 0, 1] != 0.0
        assert np.all(p.grad[0, :, 0, 0] == 0.0) and np.all(p.grad[0, :, 0, 1] != 0.0)

    def test_one_node_on_its_inputs(self):
        values = t64(np.zeros((1, 2, 3, 3)), grad=True)
        p = params(np.zeros((1, 2, 3, 3)), 1.0, grad=True)
        bits = E.gaussian_bits(values, p)
        assert bits.op == "gaussian_bits"
        (a, _), (b, _) = bits._edges
        assert a is values and b is p

    def test_scale_from_raw_floor(self):
        # the scale is SCALE_MIN + softplus(raw): 0.11 + ln 2 at raw 0, at
        # least SCALE_MIN far below, and no overflow far above
        v = t64(np.array([[[[0.0, 1.0, 2.0]]]]))
        raw = np.array([[[[0.0, -40.0, 500.0]]]])
        bits = E.gaussian_bits(v, t64(np.concatenate([np.zeros_like(raw), raw], axis=1)))
        scale = np.array([E.SCALE_MIN + math.log(2.0), E.SCALE_MIN, 500.0 + E.SCALE_MIN])
        want = -np.log2(np.maximum(gauss_prob_oracle(v.data.ravel(), 0.0, scale), E.PROB_FLOOR))
        assert bits.data.ravel() == pytest.approx(want, abs=1e-12)


class TestErf:
    # the rate model and the coder tables share tensor.erf, built from
    # basic arithmetic; scipy's erf is the oracle
    def test_matches_scipy_on_a_dense_grid(self):
        x = np.linspace(-40.0, 40.0, 1_600_001)
        assert np.abs(T.erf(x) - erf(x)).max() <= 2e-15

    def test_edge_values(self):
        out = T.erf(np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 6.0, -1e300]))
        assert np.isnan(out[0])
        assert out[1:].tolist() == [1.0, -1.0, 0.0, 0.0, 1.0, -1.0]
        assert np.signbit(out[3]) and not np.signbit(out[4])

    def test_odd(self):
        x = np.random.default_rng(40).normal(scale=3.0, size=100_000)
        assert np.array_equal(T.erf(-x), -T.erf(x))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_dtype_and_shape(self, dtype):
        # float32 like scipy's float32 loop: the float64 value rounded once
        x = np.random.default_rng(41).normal(scale=3.0, size=(3, 5, 7, 11)).astype(dtype)
        out = T.erf(x)
        assert out.dtype == dtype and out.shape == x.shape
        if dtype == np.float32:
            assert np.array_equal(out, erf(x))

    def test_committed_centres(self):
        # erf(k/4) and exp(-(k/4)^2) are the correctly rounded values; scipy
        # and the host's exp are each within one ulp of them
        c = np.arange(25) / 4.0
        assert np.all(np.abs(T._ERF_AT - erf(c)) <= np.spacing(erf(c)))
        exp = np.array([math.exp(-v * v) for v in c])
        assert np.all(np.abs(T._EXP_AT - exp) <= np.spacing(exp))

    def test_a_nan_value_reaches_numeric_error(self):
        # a nan forward pass gives a nan rate, which backward rejects
        v = Tensor(np.array([[[[np.nan, 0.0]]]], dtype=np.float32), requires_grad=True)
        bits = E.gaussian_bits(v, Tensor(np.zeros((1, 2, 1, 2), dtype=np.float32)))
        assert np.isnan(bits.data[0, 0, 0, 0])
        with pytest.raises(NumericError):
            T.backward(T.sum_all(bits))


class TestBuildCdfs:
    def test_shape_and_grid(self):
        mean = np.zeros(5)
        scale = np.ones(5)
        cdfs = E.build_cdfs(mean, scale, -4, 4)
        assert cdfs.shape == (5, 9 + 2)  # 9 value bins + escape, +1 edge
        assert np.all(cdfs[:, 0] == 0)
        assert np.all(cdfs[:, -1] == CDF_TOTAL)
        assert np.all(np.diff(cdfs, axis=1) >= 1)

    def test_frequencies_track_probabilities(self):
        cdfs = E.build_cdfs(np.zeros(1), np.ones(1), -8, 8)
        freqs = np.diff(cdfs[0])[:-1]  # drop escape
        probs = gauss_prob_oracle(np.arange(-8, 9, dtype=float), 0.0, 1.0)
        assert freqs / CDF_TOTAL == pytest.approx(probs, abs=2e-4)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        mean = rng.normal(size=7)
        scale = rng.uniform(0.2, 3.0, size=7)
        a = E.build_cdfs(mean, scale, -5, 5)
        b = E.build_cdfs(mean, scale, -5, 5)
        assert np.array_equal(a, b)

    def test_support_contracts(self):
        with pytest.raises(ContractError):
            E.build_cdfs(np.zeros(1), np.ones(1), 3, 2)
        with pytest.raises(ContractError):
            E.build_cdfs(np.zeros(1), np.ones(1), 0, CDF_TOTAL)

    def test_oversized_support_rejected_before_allocation(self):
        # 64 tables of 70k bins would take over 35 MB per float64 array
        tracemalloc.start()
        try:
            with pytest.raises(ContractError):
                E.build_cdfs(np.zeros(64), np.ones(64), 0, 70000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_row_without_mass_escapes_everything(self):
        # a mean of -6.5e7 at scale 0.11 puts no mass on [0, 0]: the escape
        # bin takes the whole budget and the row still sums to 2^16
        cdfs = E.build_cdfs(np.array([-6.5e7, 0.0]), np.array([0.11, 0.11]), 0, 0)
        assert cdfs[:, -1].tolist() == [CDF_TOTAL, CDF_TOTAL]
        assert np.diff(cdfs[0]).tolist() == [1, CDF_TOTAL - 1]

    def test_rows_do_not_depend_on_their_neighbours(self):
        rng = np.random.default_rng(14)
        mean = rng.normal(scale=3.0, size=300)
        scale = rng.uniform(0.11, 4.0, size=300)
        full = E.build_cdfs(mean, scale, -6, 7)
        for a, b in ((0, 1), (0, 299), (1, 300), (150, 151), (17, 230)):
            assert np.array_equal(E.build_cdfs(mean[a:b], scale[a:b], -6, 7), full[a:b])


class TestGaussianCoding:
    def test_round_trip_random(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            mean = rng.normal(scale=2.0, size=n)
            scale = rng.uniform(E.SCALE_MIN, 3.0, size=n)
            values = np.rint(rng.normal(scale=3.0, size=n)).astype(np.int64)
            payload, support = E.encode_gaussian(values, mean, raw_of(scale))
            back = E.decode_gaussian(payload, mean, raw_of(scale), support, n)
            assert np.array_equal(back, values)

    def test_rate_close_to_estimate(self):
        rng = np.random.default_rng(14)
        n = 1000
        mean = np.zeros(n)
        scale = np.full(n, 1.3)
        values = np.rint(rng.normal(scale=1.3, size=n)).astype(np.int64)
        payload, support = E.encode_gaussian(values, mean, raw_of(scale))
        est = E.gaussian_bits(t64(values.reshape(1, 1, 1, -1).astype(float)),
                              params(mean.reshape(1, 1, 1, -1), scale.reshape(1, 1, 1, -1)))
        est_total = float(est.data.sum())
        assert 8 * len(payload) <= est_total + 0.01 * n + 64

    def test_escape_path(self):
        # values spanning more than MAX_TABLE_BINS survive the round trip:
        # the support is narrowed around the median and the rest escaped
        mean = np.zeros(6)
        scale = np.ones(6)
        values = np.array([0, -40, 1, 123456, -5000, (1 << 31) - 1], dtype=np.int64)
        payload, (lo, hi) = E.encode_gaussian(values, mean, raw_of(scale))
        assert hi - lo + 2 == E.MAX_TABLE_BINS and not lo <= 123456 <= hi
        back = E.decode_gaussian(payload, mean, raw_of(scale), (lo, hi), 6)
        assert np.array_equal(back, values)

    def test_escape_value_too_large(self):
        # the escape carries a 32-bit zigzag code: offsets in [-2^31, 2^31)
        # fit
        mean, scale = np.zeros(2), np.ones(2)
        for v in (1 << 31, -(1 << 31) - 1, 1 << 62):
            with pytest.raises(ContractError):
                E.encode_gaussian(np.array([0, v]), mean, raw_of(scale))
        values = np.array([(1 << 31) - 1, -(1 << 31)])
        payload, support = E.encode_gaussian(values, mean, raw_of(scale))
        assert np.array_equal(E.decode_gaussian(payload, mean, raw_of(scale), support, 2), values)

    def test_count_mismatch(self):
        payload, support = E.encode_gaussian(np.zeros(3, dtype=np.int64),
                                             np.zeros(3), np.ones(3))
        with pytest.raises(ShapeError):
            E.decode_gaussian(payload, np.zeros(3), np.ones(3), support, 5)
        with pytest.raises(ShapeError):
            E.encode_gaussian(np.zeros(3, dtype=np.int64), np.zeros(2), np.ones(2))

    def test_empty_tensor(self):
        payload, support = E.encode_gaussian(np.zeros(0, dtype=np.int64),
                                             np.zeros(0), np.ones(0))
        back = E.decode_gaussian(payload, np.zeros(0), np.ones(0), support, 0)
        assert back.size == 0


def _reference_stream(values, mean, raw):
    """The coder's byte stream rebuilt one symbol at a time in Python ints:
    each value's offset from its rounded mean, coded under the table-set
    row of the number of scale thresholds below its raw scale and its
    mean's fraction bucket, and every offset outside the support as the
    escape bin plus its zigzag code at the payload's tail.  Symbol i runs
    in lane i mod L, with one lane per 512 symbols, at least 1 and at
    most 256; the symbols are coded last to first, so the decoder reads
    them first to last.  Returns (stream, (lo, hi))."""
    center = E.round_away(mean)
    offsets = (values - center).astype(np.int64)
    lo, hi = (int(offsets.min()), int(offsets.max())) if offsets.size else (0, 0)
    if hi - lo + 2 > E.MAX_TABLE_BINS:
        lo = int(np.median(offsets)) - (E.MAX_TABLE_BINS - 2) // 2
        hi = lo + E.MAX_TABLE_BINS - 2
    scale_idx = (raw[:, None] > E.RAW_EDGES[None, :]).sum(axis=1)
    mean_idx = np.minimum(np.floor((mean - center + 0.5) * 8), 7).astype(int)
    table = E._table_set(lo, hi).tolist()
    lanes = min(max(offsets.size // 512, 1), 256)
    state = [1 << 16] * lanes
    words, tail = [], []
    for i in reversed(range(offsets.size)):
        v, cdf = int(offsets[i]), table[8 * scale_idx[i] + mean_idx[i]]
        symbol = v - lo if lo <= v <= hi else len(cdf) - 2
        start, freq = cdf[symbol], cdf[symbol + 1] - cdf[symbol]
        x = state[i % lanes]
        if x >= freq << 16:
            words.append(x & 0xFFFF)
            x >>= 16
        state[i % lanes] = (x // freq << 16) + x % freq + start
        if symbol == len(cdf) - 2:
            tail.append(2 * v if v >= 0 else -2 * v - 1)
    stream = b"".join(x.to_bytes(4, "little") for x in state)
    stream += b"".join(w.to_bytes(2, "little") for w in reversed(words))
    stream += b"".join(u.to_bytes(4, "little") for u in tail)
    return stream, (lo, hi)


def _draw(rng, n, spread):
    """n values around random means and scales, with escapes at the first,
    last and two adjacent positions; returns (values, mean, raw)."""
    mean = rng.normal(scale=4.0, size=n)
    scale = np.exp(rng.uniform(np.log(0.05), np.log(400.0), size=n))
    noise = np.clip(np.round(scale * rng.normal(size=n)), -spread, spread)
    values = (E.round_away(mean) + noise).astype(np.int64)
    escapes = [i for i in (0, n - 1, n // 2, n // 2 + 1) if 0 <= i < n]
    for i, v in zip(escapes, [1 << 30, -(1 << 30), 12345, -4000]):
        values[i] = v
    return values, mean, raw_of(scale)


class TestReferenceStream:
    """The vectorised coder must produce the one-symbol-at-a-time stream,
    whatever the length and lane count and wherever the escapes fall, and
    decode it in runs cut anywhere."""

    @pytest.mark.parametrize("spread", [2, 300])
    def test_matches_one_symbol_reference(self, spread):
        # 1 lane; 7 lanes with a partial last step; 256 lanes, one step
        # shorter than the rest
        rng = np.random.default_rng(15)
        for n in (0, 1, 2, 3, 4, 57, 4000, 256 * 512 + 17):
            values, mean, raw = _draw(rng, n, spread)
            payload, support = E.encode_gaussian(values, mean, raw)
            assert (payload, support) == _reference_stream(values, mean, raw), n
            back = E.decode_gaussian(payload, mean, raw, support, n)
            assert back.dtype == np.int64 and np.array_equal(back, values), n

    def test_runs_cut_anywhere_read_the_same_stream(self):
        # decode_context decodes one wavefront per run; the read order
        # depends on the symbol index alone, so any cut decodes alike
        rng = np.random.default_rng(16)
        for n, cuts in ((57, 5), (4000, 40), (300_000, 30)):
            values, mean, raw = _draw(rng, n, 300)
            values[rng.integers(0, n, size=6)] = 99_999
            payload, (lo, hi) = E.encode_gaussian(values, mean, raw)
            dec = rans.Decoder(payload, n, E._table_set(lo, hi))
            ends = np.unique(np.concatenate([rng.integers(0, n, cuts), [1, 2, n]]))
            back = [E._decode_values(dec, mean[a:b], raw[a:b], b - a, lo)
                    for a, b in zip(np.concatenate([[0], ends[:-1]]), ends)]
            assert np.array_equal(np.concatenate(back), values), n

    def test_empty_payload_still_checks_its_support(self):
        payload, _ = E.encode_gaussian(np.zeros(0, dtype=np.int64), np.zeros(0), np.ones(0))
        for support in ((0, CDF_TOTAL), (3, 2)):
            with pytest.raises(ContractError):
                E.decode_gaussian(payload, np.zeros(0), np.ones(0), support, 0)
            with pytest.raises(ContractError):
                E.decode_context(payload, _context_net(2, 4, 0), (1, 2, 0, 3), support)


class TestTableSet:
    def test_one_build_per_call(self, monkeypatch):
        # each coding call builds one table set, decode_context included,
        # however many positions its map has
        rng = np.random.default_rng(26)
        mean = rng.normal(size=300)
        scale = rng.uniform(0.2, 2.0, size=300)
        values = np.round(mean + scale * rng.normal(size=300)).astype(np.int64)
        net = _context_net(2, 4, seed=27)
        z = np.round(rng.normal(scale=2.0, size=(1, 2, 3, 4)))
        calls = []
        build = E.build_cdfs
        monkeypatch.setattr(E, "build_cdfs", lambda *a: calls.append(a) or build(*a))
        payload, support = E.encode_gaussian(values, mean, raw_of(scale))
        E.decode_gaussian(payload, mean, raw_of(scale), support, 300)
        z_payload, z_support = E.encode_context(z, net)
        assert np.array_equal(E.decode_context(z_payload, net, z.shape, z_support), z)
        assert len(calls) == 4
        assert all(len(a[0]) == E.TABLE_SCALES.size * E.TABLE_MEANS.size for a in calls)

    def test_rows_follow_the_grid(self):
        # the raw scales of grid scales map to their own rows, raw scales
        # beyond either end to the end rows, and the mean's fraction about
        # its rounded value to one of eight buckets
        s = E.TABLE_SCALES
        raw = np.concatenate([raw_of(s), [-50.0, 1e6], np.full(6, raw_of(s[5]))])
        mean = np.concatenate([np.full(66, 7.0), [-2.5, 2.5, 3.49, -3.49, 0.1, -0.1]])
        center, rows = E._table_rows(mean, raw, raw.size)
        assert center.dtype == np.int64
        assert center.tolist() == [7] * 66 + [-3, 3, 3, -3, 0, 0]
        assert (rows[:64] // 8).tolist() == list(range(64))
        assert (rows[64:66] // 8).tolist() == [0, 63]
        assert (rows[:66] % 8 == 4).all()
        assert (rows[66:] // 8 == 5).all()
        assert (rows[66:] % 8).tolist() == [7, 0, 7, 0, 4, 3]

    def test_scale_thresholds(self):
        # row s takes the raw scales in (RAW_EDGES[s-1], RAW_EDGES[s]]: the
        # inverse softplus of the geometric midpoints of the grid scales, on
        # multiples of 2^-12 and each at least 1e-6 grid steps from a
        # rounding tie, so a last-place libm difference cannot move one
        s = E.TABLE_SCALES
        exact = raw_of(np.sqrt(s[1:] * s[:-1])) * 2.0 ** 12
        assert np.array_equal(E.RAW_EDGES * 2.0 ** 12, np.rint(exact))
        assert np.abs(np.abs(exact - np.floor(exact)) - 0.5).min() > 1e-6
        edges = E.RAW_EDGES
        rows = E._table_rows(np.zeros(3 * edges.size), np.concatenate(
            [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]), 3 * edges.size)[1]
        k = np.arange(edges.size)
        assert (rows // 8).tolist() == k.tolist() * 2 + (k + 1).tolist()


    # golden, bench and widest offset supports
    SUPPORTS = [(0, 0), (0, 1), (-1, 1), (-2, 2), (-5, 5), (-8, 11), (-9, 6), (-11, 12),
                (-14, 9), (-18, 17), (-42, 27), (-42, 42), (-511, 510)]

    def test_equals_tables_built_with_scipy(self, monkeypatch):
        ours = [E._table_set(lo, hi) for lo, hi in self.SUPPORTS]
        monkeypatch.setattr(T, "erf", erf)
        for (lo, hi), table in zip(self.SUPPORTS, ours):
            assert np.array_equal(table, E._table_set(lo, hi)), (lo, hi)

    def test_committed_scales_are_geomspace(self):
        assert np.array_equal(E.TABLE_SCALES, np.geomspace(E.SCALE_MIN, 256.0, 64))


class TestHostileParameters:
    def test_non_finite_parameters_rejected(self):
        payload, support = E.encode_gaussian(np.zeros(3, dtype=np.int64),
                                             np.zeros(3), np.ones(3))
        for mean, scale in (([0.0, np.nan, 0.0], [1.0] * 3),
                            ([0.0] * 3, [1.0, np.inf, 1.0]),
                            ([-np.inf, 0.0, 0.0], [1.0] * 3)):
            with pytest.raises(NumericError):
                E.encode_gaussian(np.zeros(3, dtype=np.int64), np.array(mean), np.array(scale))
            with pytest.raises(NumericError):
                E.decode_gaussian(payload, np.array(mean), np.array(scale), support, 3)

    def test_extreme_means_round_trip(self):
        # means of +-3e38 are clipped before rounding, so a value of 0 has
        # an escapable offset and nothing wraps
        mean = np.array([3e38, -3e38, 0.3, 1.7])
        scale = np.ones(4)
        values = np.array([0, 0, 1, 2], dtype=np.int64)
        payload, support = E.encode_gaussian(values, mean, raw_of(scale))
        assert np.array_equal(E.decode_gaussian(payload, mean, raw_of(scale), support, 4), values)

    def test_scale_above_the_grid_round_trips(self):
        mean = np.array([0.2, -40.6, 1e3])
        scale = np.array([1e4, 3e38, 257.0])
        values = np.array([-700, 300, 1000], dtype=np.int64)
        assert (E._table_rows(mean, raw_of(scale), 3)[1] // 8 == 63).all()
        payload, support = E.encode_gaussian(values, mean, raw_of(scale))
        assert np.array_equal(E.decode_gaussian(payload, mean, raw_of(scale), support, 3), values)

    def test_one_value_payload_without_grid_mass(self):
        # the offset 5 has no mass under the narrowest grid rows; their
        # tables still sum to 2^16, so the value round-trips and a garbage
        # stream decodes or raises StreamError, never an IndexError
        mean, scale = np.zeros(1), np.full(1, E.SCALE_MIN)
        payload, support = E.encode_gaussian(np.array([5]), mean, raw_of(scale))
        assert support == (5, 5)
        assert E.decode_gaussian(payload, mean, raw_of(scale), support, 1).tolist() == [5]
        try:
            E.decode_gaussian(b"\xff" * 8, mean, raw_of(scale), support, 1)
        except StreamError:
            pass

    def test_garbage_stream_under_a_far_mean(self):
        # a garbage hyper-latent can give a mean of -6.5e7 at scale 0.11: a
        # garbage stream then decodes or raises StreamError, never an
        # IndexError
        mean, scale = np.array([-6.5e7]), np.array([0.11])
        for payload in (b"\xff" * 8, b"\x00" * 8, bytes(range(8))):
            for support in ((0, 0), (-3, 3)):
                try:
                    E.decode_gaussian(payload, mean, raw_of(scale), support, 1)
                except StreamError:
                    pass


class TestHostileHeader:
    def test_patched_support_decodes_in_bounded_memory(self):
        # a 128-symbol payload whose header claims support [-32768, 32000]
        # (64,770 bins, just inside the 16-bit grid) must not build all 128
        # wide tables at once
        rng = np.random.default_rng(16)
        mean = rng.normal(size=128)
        scale = rng.uniform(0.2, 2.0, size=128)
        values = np.round(mean + scale * rng.normal(size=128)).astype(np.int64)
        payload, _ = E.encode_gaussian(values, mean, raw_of(scale))
        tracemalloc.start()
        try:
            E.decode_gaussian(payload, mean, raw_of(scale), (-32768, 32000), 128)
        except (ContractError, FormatError, NumericError, ShapeError, StreamError):
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_patched_support_builds_no_table(self, monkeypatch):
        # a 4,096-symbol payload of about 1 KB whose header claims support
        # [-32768, 32000] is rejected before a single table is built, so it
        # costs no time in proportion to its length
        rng = np.random.default_rng(17)
        mean = rng.normal(size=4096)
        scale = rng.uniform(0.2, 2.0, size=4096)
        values = np.round(mean + scale * rng.normal(size=4096)).astype(np.int64)
        payload, _ = E.encode_gaussian(values, mean, raw_of(scale))
        z = np.round(rng.normal(size=(1, 2, 3, 4)))
        net = _context_net(2, 4, 1)
        z_payload, _ = E.encode_context(z, net)
        calls = []
        build = E.build_cdfs
        monkeypatch.setattr(E, "build_cdfs", lambda *a: calls.append(a) or build(*a))
        with pytest.raises(ContractError):
            E.decode_gaussian(payload, mean, raw_of(scale), (-32768, 32000), 4096)
        with pytest.raises(ContractError):
            E.decode_context(z_payload, net, z.shape, (-32768, 32000))
        assert calls == []

    def test_wide_value_range_is_windowed(self):
        # 5,000 distinct values would need a 5,001-bin table: the encoder
        # narrows the support around the median and escapes the rest
        rng = np.random.default_rng(18)
        values = np.arange(-2500, 2500, dtype=np.int64)
        rng.shuffle(values)
        mean = values + rng.normal(scale=3.0, size=values.size)
        scale = rng.uniform(0.5, 8.0, size=values.size)
        payload, (lo, hi) = E.encode_gaussian(values, mean, raw_of(scale))
        assert hi - lo + 2 <= E.MAX_TABLE_BINS
        assert lo <= int(np.median(values)) <= hi
        back = E.decode_gaussian(payload, mean, raw_of(scale), (lo, hi), values.size)
        assert np.array_equal(back, values)


def _context_net(channels, hidden, seed, zero=False):
    params = L.ParamStore(np.float64)
    net = L.make_network(L.context_spec(channels, hidden=hidden), params, "ctx",
                         rng=np.random.default_rng(seed))
    if zero:
        params.load_arrays({n: np.zeros(t.shape) for n, t in params.items()})
    return net


class TestContextCoding:
    def test_round_trip_random(self):
        rng = np.random.default_rng(15)
        net = _context_net(2, 4, seed=16)
        z = rng.integers(-4, 5, size=(1, 2, 5, 6)).astype(np.float64)
        payload, support = E.encode_context(z, net)
        back = E.decode_context(payload, net, z.shape, support)
        assert np.array_equal(back, z)

    def test_all_zero_with_zero_net(self):
        # a zeroed context net gives every position the same parameters
        net = _context_net(2, 4, seed=0, zero=True)
        z = np.zeros((1, 2, 4, 4))
        mean, raw = E.context_params(net, z)
        assert np.all(mean == mean.reshape(-1)[0])
        assert np.all(raw == raw.reshape(-1)[0])
        payload, support = E.encode_context(z, net)
        back = E.decode_context(payload, net, z.shape, support)
        assert np.array_equal(back, z)

    def test_causality_of_parameters(self):
        # flipping a value never changes the parameters used before it
        rng = np.random.default_rng(17)
        net = _context_net(2, 4, seed=18)
        z = rng.integers(-2, 3, size=(1, 2, 4, 5)).astype(np.float64)
        m1, s1 = E.context_params(net, z)
        qy, qx = 2, 3
        z2 = z.copy()
        z2[0, :, qy, qx] += 4.0
        m2, s2 = E.context_params(net, z2)
        cut = qy * 5 + qx
        dm = np.abs(m1 - m2).max(axis=(0, 1)).reshape(-1)
        ds = np.abs(s1 - s2).max(axis=(0, 1)).reshape(-1)
        assert np.all(dm[:cut + 1] == 0.0)
        assert np.all(ds[:cut + 1] == 0.0)

    def test_rate_close_to_estimate(self):
        rng = np.random.default_rng(19)
        net = _context_net(2, 4, seed=20)
        z = rng.integers(-3, 4, size=(1, 2, 6, 6)).astype(np.float64)
        payload, support = E.encode_context(z, net)
        est = E.context_bits(t64(z), net)
        n = z.size
        assert 8 * len(payload) <= float(est.data.sum()) + 0.01 * n + 64

    def test_escape_path(self):
        # offsets outside a support narrowed to MAX_TABLE_BINS are escaped
        # position by position
        rng = np.random.default_rng(22)
        net = _context_net(2, 4, seed=23)
        z = rng.integers(-3, 4, size=(1, 2, 4, 5)).astype(np.float64)
        z[0, 1, 2, 3] = 4000.0
        z[0, 0, 3, 4] = -4000.0
        payload, (lo, hi) = E.encode_context(z, net)
        offsets = z - E.round_away(E.context_params(net, z)[0])
        assert hi - lo + 2 <= E.MAX_TABLE_BINS
        assert ((offsets < lo) | (offsets > hi)).any()
        back = E.decode_context(payload, net, z.shape, (lo, hi))
        assert np.array_equal(back, z)

    def test_bits_come_from_the_coder_parameters(self):
        # on the grid the rate estimate reads the coder's parameters; off it
        # the float net's, which the grid rounds by a little
        rng = np.random.default_rng(24)
        net = _context_net(2, 4, seed=25)
        z = rng.integers(-3, 4, size=(1, 2, 5, 6)).astype(np.float64)
        mean, raw = E.context_params(net, z)
        want = E.gaussian_bits(t64(z), t64(np.concatenate([mean, raw], axis=1)))
        assert np.array_equal(E.context_bits(t64(z), net, grid=True).data, want.data)
        out = net(t64(z))
        assert np.abs(out.data[:, :2] - mean).max() < 0.02
        float_bits = E.context_bits(t64(z), net).data
        assert np.array_equal(float_bits, E.gaussian_bits(t64(z), out).data)
        assert np.abs(float_bits - want.data).max() < 0.05

    def test_decode_rejects_batches(self):
        net = _context_net(1, 4, seed=21)
        with pytest.raises(ContractError):
            E.decode_context(b"\x00" * 8, net, (2, 1, 2, 2), (0, 0))
