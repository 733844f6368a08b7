"""Layer checks against independently written loop oracles.

The reference convolutions below are deliberately naive (explicit loops,
no shared code with the package) so that agreement is meaningful.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from gdclab import layers as L
from gdclab import tensor as T
from gdclab.errors import ContractError, ShapeError
from gdclab.tensor import Tensor


def conv_oracle(x, w, stride):
    """Plain-loop convolution with zero padding of (k-1)//2."""
    n, c, h, width = x.shape
    oc, ic, k, _ = w.shape
    pad = (k - 1) // 2
    oh = -(-h // stride)
    ow = -(-width // stride)
    out = np.zeros((n, oc, oh, ow), dtype=np.float64)
    for ni in range(n):
        for oi in range(oc):
            for yy in range(oh):
                for xx in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(k):
                            for kj in range(k):
                                iy = yy * stride + ki - pad
                                ix = xx * stride + kj - pad
                                if 0 <= iy < h and 0 <= ix < width:
                                    acc += x[ni, ci, iy, ix] * w[oi, ci, ki, kj]
                    out[ni, oi, yy, xx] = acc
    return out


def tconv_oracle(x, w, stride):
    """Plain-loop transposed convolution: scatter inputs into the output."""
    n, ic, h, width = x.shape
    _, oc, k, _ = w.shape
    pad = (k - 1) // 2
    oh, ow = h * stride, width * stride
    out = np.zeros((n, oc, oh, ow), dtype=np.float64)
    for ni in range(n):
        for ci in range(ic):
            for yy in range(h):
                for xx in range(width):
                    for co in range(oc):
                        for ki in range(k):
                            for kj in range(k):
                                oy = yy * stride + ki - pad
                                ox = xx * stride + kj - pad
                                if 0 <= oy < oh and 0 <= ox < ow:
                                    out[ni, co, oy, ox] += x[ni, ci, yy, xx] * w[ci, co, ki, kj]
    return out


def weight_grad_oracle(big, small, stride, k):
    """Plain-loop weight gradient of a conv from ``big`` to ``small`` (or of
    the tconv from ``small`` to ``big``): dw[o, c, ki, kj] sums
    small[n, o, i, j] * big[n, c, i*stride + ki - pad, j*stride + kj - pad]."""
    n, c, h, width = big.shape
    _, o, oh, ow = small.shape
    pad = (k - 1) // 2
    dw = np.zeros((o, c, k, k), dtype=np.float64)
    for ni in range(n):
        for oi in range(o):
            for ci in range(c):
                for ki in range(k):
                    for kj in range(k):
                        for yy in range(oh):
                            for xx in range(ow):
                                iy = yy * stride + ki - pad
                                ix = xx * stride + kj - pad
                                if 0 <= iy < h and 0 <= ix < width:
                                    dw[oi, ci, ki, kj] += small[ni, oi, yy, xx] * big[ni, ci, iy, ix]
    return dw


def causal_mask(k, kind):
    """0/1 [k, k] mask: the taps before the centre in raster order (A),
    and the centre as well (B)."""
    mask = np.zeros(k * k)
    mask[:k * k // 2 + (kind == "B")] = 1.0
    return mask.reshape(k, k)


def scatter_reference(small, w, stride, taps, big_shape):
    """The tap loop that the transposed pass replaced: each of the first
    ``taps`` taps in raster order adds its product into a strided,
    channels-first window of a zero padded big grid."""
    n, c, h, width = big_shape
    k = w.shape[2]
    pad = (k - 1) // 2
    _, _, oh, ow = small.shape
    bp = np.zeros((n, c, h + 2 * pad, width + 2 * pad), dtype=small.dtype)
    for t in range(taps):
        ki, kj = divmod(t, k)
        win = (slice(None), slice(None), slice(ki, ki + (oh - 1) * stride + 1, stride),
               slice(kj, kj + (ow - 1) * stride + 1, stride))
        bp[win] += np.tensordot(small, w[:, :, ki, kj], axes=([1], [0])).transpose(0, 3, 1, 2)
    return bp[:, :, pad:pad + h, pad:pad + width]


def gdn_oracle(x, beta_raw, gamma_raw, inverse):
    """Per-position loop evaluation of the normalization formula."""
    beta = beta_raw.reshape(-1) ** 2 + L.GDN_BETA_MIN
    gamma = gamma_raw[:, :, 0, 0] ** 2
    n, c, h, w = x.shape
    out = np.zeros_like(x)
    expo = 0.5 if inverse else -0.5
    for ni in range(n):
        for i in range(c):
            for hh in range(h):
                for ww in range(w):
                    norm = beta[i]
                    for j in range(c):
                        norm += gamma[i, j] * x[ni, j, hh, ww] ** 2
                    out[ni, i, hh, ww] = x[ni, i, hh, ww] * norm ** expo
    return out


def t64(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestConv:
    @pytest.mark.parametrize("stride,k,shape", [
        (1, 3, (2, 3, 5, 5)),
        (2, 3, (1, 2, 6, 7)),
        (2, 5, (2, 2, 8, 6)),
        (1, 1, (1, 4, 3, 3)),
    ])
    def test_matches_loop_oracle(self, stride, k, shape):
        rng = np.random.default_rng(hash((stride, k, shape)) % 2**32)
        x = rng.normal(size=shape)
        w = rng.normal(size=(4, shape[1], k, k))
        got = L.conv2d(t64(x), t64(w), stride=stride)
        assert got.data == pytest.approx(conv_oracle(x, w, stride), abs=1e-12)

    def test_bias_adds_per_channel(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=(1, 3, 1, 1))
        base = L.conv2d(t64(x), t64(w))
        with_b = L.conv2d(t64(x), t64(w), bias=t64(b))
        assert with_b.data == pytest.approx(base.data + b, abs=1e-12)

    def test_output_shape_rounds_up(self):
        x = t64(np.zeros((1, 1, 7, 9)))
        w = t64(np.zeros((2, 1, 3, 3)))
        assert L.conv2d(x, w, stride=2).shape == (1, 2, 4, 5)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            L.conv2d(t64(np.zeros((1, 3, 4, 4))), t64(np.zeros((2, 2, 3, 3))))

    def test_bad_weight_rank(self):
        with pytest.raises(ShapeError):
            L.conv2d(t64(np.zeros((1, 1, 4, 4))), t64(np.zeros((2, 1, 3, 5))))

    def test_bad_bias_shape(self):
        x = t64(np.zeros((1, 1, 4, 4)))
        w = t64(np.zeros((2, 1, 3, 3)))
        with pytest.raises(ShapeError):
            L.conv2d(x, w, bias=t64(np.zeros((1, 3, 1, 1))))


class TestTconv:
    @pytest.mark.parametrize("stride,k", [(1, 3), (2, 3), (2, 5), (3, 3), (2, 1), (3, 5)])
    def test_matches_loop_oracle(self, stride, k):
        rng = np.random.default_rng(stride * 10 + k)
        x = rng.normal(size=(2, 3, 4, 5))
        w = rng.normal(size=(3, 2, k, k))
        got = L.tconv2d(t64(x), t64(w), stride=stride)
        assert got.shape == (2, 2, 4 * stride, 5 * stride)
        assert got.data == pytest.approx(tconv_oracle(x, w, stride), abs=1e-12)

    def test_adjoint_of_conv(self):
        # <conv(x, W), y> == <x, tconv(y, W)> when the input size divides
        # evenly, since both use the same array in transposed layout
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(5, 3, 3, 3))
        y = rng.normal(size=(2, 5, 4, 4))
        cx = L.conv2d(t64(x), t64(w), stride=2)
        ty = L.tconv2d(t64(y), t64(w), stride=2)
        lhs = float(np.sum(cx.data * y))
        rhs = float(np.sum(x * ty.data))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            L.tconv2d(t64(np.zeros((1, 3, 4, 4))), t64(np.zeros((2, 3, 3, 3))))


def same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and \
        np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


class TestScatterBytes:
    """The transposed pass (tconv2d forward, every conv input gradient)
    gives the very bytes of the tap loop it replaced on small integers:
    every product and partial sum of -8..8 inputs is exact in both dtypes,
    so any wrong tap, phase, pad, crop or mask changes a byte, whatever
    order the sums run in."""

    DTYPES = (np.float32, np.float64)

    @staticmethod
    def _ints(rng, *shape, dtype):
        return rng.integers(-8, 9, size=shape).astype(dtype)

    @pytest.mark.parametrize("stride,k,n,dtype,small", itertools.product(
        (1, 2, 3, 4), (1, 3, 5, 7), (1, 2), DTYPES, ((1, 1), (3, 5))))
    def test_tconv_forward(self, stride, k, n, dtype, small):
        rng = np.random.default_rng(stride * 100 + k * 10 + n)
        x = self._ints(rng, n, 4, *small, dtype=dtype)
        w = self._ints(rng, 4, 3, k, k, dtype=dtype)
        got = L.tconv2d(Tensor(x), Tensor(w), stride=stride).data
        big = (n, 3, small[0] * stride, small[1] * stride)
        assert same_bytes(got, scatter_reference(x, w, stride, k * k, big))

    @classmethod
    def _input_grad(cls, layer, x, w, rng):
        xt = Tensor(x, requires_grad=True)
        y = layer(xt, Tensor(w))
        r = cls._ints(rng, *y.shape, dtype=x.dtype)
        T.backward(T.sum_all(T.mul(y, Tensor(r))))
        return xt.grad, r

    @pytest.mark.parametrize("stride,k,n,dtype,big", itertools.product(
        (1, 2, 3, 4), (1, 3, 5, 7), (1, 2), DTYPES, ((1, 1), (7, 11))))
    def test_conv_input_grad(self, stride, k, n, dtype, big):
        rng = np.random.default_rng(stride * 100 + k * 10 + n)
        x = self._ints(rng, n, 3, *big, dtype=dtype)
        w = self._ints(rng, 4, 3, k, k, dtype=dtype)
        got, r = self._input_grad(lambda a, b: L.conv2d(a, b, stride=stride), x, w, rng)
        assert same_bytes(got, scatter_reference(r, w, stride, k * k, x.shape))

    @pytest.mark.parametrize("kind,k,n,dtype", itertools.product(
        ("A", "B"), (1, 3, 5, 7), (1, 2), DTYPES))
    def test_masked_conv_input_grad(self, kind, k, n, dtype):
        rng = np.random.default_rng(k * 10 + n)
        x = self._ints(rng, n, 3, 6, 9, dtype=dtype)
        w = self._ints(rng, 4, 3, k, k, dtype=dtype)
        got, r = self._input_grad(lambda a, b: L.masked_conv2d(a, b, kind=kind), x, w, rng)
        taps = k * k // 2 + (kind == "B")
        assert same_bytes(got, scatter_reference(r, w, 1, taps, x.shape))

    def test_hd_tconv_peak_memory(self):
        # one stride-2 32->32 synthesis layer of a 1088x1920 frame: the
        # call holds its output, one slab of padded small-grid rows, one
        # band of columns and one band product (1.15 times the output)
        rng = np.random.default_rng(31)
        x = Tensor(rng.normal(size=(1, 32, 136, 240)).astype(np.float32))
        w = Tensor(rng.normal(scale=0.1, size=(32, 32, 5, 5)).astype(np.float32))
        tracemalloc.start()
        try:
            out = L.tconv2d(x, w, stride=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * out.data.nbytes


class TestTransposedFloat32:
    """The transposed pass in float32 stays within 2e-5 of float64 on the
    same float32 inputs, at outputs of magnitude 8 to 9.  One GEMM sums all
    o*m*m products of a phase, where the tap loop it replaced summed o per
    tap: these cases read 4.8e-6 to 7.6e-6, against 1.0e-6 to 2.0e-6 for
    the loop, and the stride-1 16->16 conv forward on the same 128x128
    input reads 7.3e-6."""

    BOUND = 2e-5

    @staticmethod
    def _both(fn, *arrays):
        got = fn(*arrays)
        want = fn(*(a.astype(np.float64) for a in arrays))
        assert got.dtype == np.float32 and want.dtype == np.float64
        return got, want

    @pytest.mark.parametrize("cout", [32, 3])
    def test_hd_synthesis_tconv(self, cout):
        rng = np.random.default_rng(33 + cout)
        x = rng.normal(size=(1, 32, 34, 60)).astype(np.float32)
        w = rng.normal(scale=0.1, size=(32, cout, 5, 5)).astype(np.float32)
        got, want = self._both(lambda a, b: L.tconv2d(Tensor(a), Tensor(b), stride=2).data, x, w)
        assert np.abs(got - want).max() <= self.BOUND

    def test_stride1_input_grad(self):
        rng = np.random.default_rng(35)
        x = rng.normal(size=(1, 16, 128, 128)).astype(np.float32)
        w = rng.normal(scale=0.1, size=(16, 16, 5, 5)).astype(np.float32)
        r = rng.normal(size=(1, 16, 128, 128)).astype(np.float32)

        def input_grad(a, b, c):
            xt = Tensor(a, requires_grad=True)
            T.backward(T.sum_all(T.mul(L.conv2d(xt, Tensor(b)), Tensor(c))))
            return xt.grad

        got, want = self._both(input_grad, x, w, r)
        assert np.abs(got - want).max() <= self.BOUND


class TestGDN:
    def test_hand_value(self):
        # x=2, beta_raw=0.5, gamma_raw=0.3:
        #   norm = 0.25 + 1e-6 + 0.09 * 4 = 0.610001
        x = t64([[[[2.0]]]])
        beta = t64([[[[0.5]]]])
        gamma = t64([[[[0.3]]]])
        fwd = L.gdn(x, beta, gamma)
        inv = L.gdn(x, beta, gamma, inverse=True)
        assert fwd.item() == pytest.approx(2.560735499695255, abs=1e-14)
        assert inv.item() == pytest.approx(1.5620512155496056, abs=1e-14)

    @pytest.mark.parametrize("inverse", [False, True])
    def test_matches_loop_oracle(self, inverse):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 4, 4))
        beta = rng.uniform(0.3, 1.0, size=(1, 3, 1, 1))
        gamma = rng.uniform(0.1, 0.6, size=(3, 3, 1, 1))
        got = L.gdn(t64(x), t64(beta), t64(gamma), inverse=inverse)
        want = gdn_oracle(x, beta, gamma, inverse)
        assert got.data == pytest.approx(want, abs=1e-12)

    def test_forward_times_inverse_is_square(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 2, 3, 3))
        beta = rng.uniform(0.3, 1.0, size=(1, 2, 1, 1))
        gamma = rng.uniform(0.1, 0.6, size=(2, 2, 1, 1))
        fwd = L.gdn(t64(x), t64(beta), t64(gamma))
        inv = L.gdn(t64(x), t64(beta), t64(gamma), inverse=True)
        assert fwd.data * inv.data == pytest.approx(x * x, abs=1e-12)

    def test_reparam_keeps_denominator_positive(self):
        # negative raw values still yield finite output
        x = t64(np.zeros((1, 1, 2, 2)))
        out = L.gdn(x, t64([[[[-0.5]]]]), t64([[[[-0.2]]]]))
        assert np.all(np.isfinite(out.data))

    def test_forward_holds_its_output_and_one_band(self):
        # float32 GDN over an HD-sized 32-channel map: x^2 and the norm of
        # one band of pixels at a time share one buffer of BAND_CELLS cells,
        # and nothing of the map's size is made besides the output (the
        # composed form held four full-size temporaries)
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(1, 32, 544, 960)).astype(np.float32))
        beta = Tensor(rng.uniform(0.5, 1.0, size=(1, 32, 1, 1)).astype(np.float32))
        gamma = Tensor(rng.uniform(0.0, 0.3, size=(32, 32, 1, 1)).astype(np.float32))
        for inverse in (False, True):
            tracemalloc.start()
            try:
                out = L.gdn(x, beta, gamma, inverse=inverse)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # numpy's ufunc and GEMM calls allocate about 74 KB of their own
            assert peak <= out.data.nbytes + 4 * L.BAND_CELLS + 131072
            del out

    def test_dtypes_must_agree(self):
        x = Tensor(np.ones((1, 2, 3, 3), dtype=np.float32))
        with pytest.raises(ContractError):
            L.gdn(x, t64(np.ones((1, 2, 1, 1))), t64(np.ones((2, 2, 1, 1))))

    def test_shape_contracts(self):
        x = t64(np.zeros((1, 2, 3, 3)))
        with pytest.raises(ShapeError):
            L.gdn(x, t64(np.zeros((1, 3, 1, 1))), t64(np.zeros((2, 2, 1, 1))))
        with pytest.raises(ShapeError):
            L.gdn(x, t64(np.zeros((1, 2, 1, 1))), t64(np.zeros((3, 2, 1, 1))))


class TestPReLU:
    def test_values(self):
        x = t64([[[[-2.0, 3.0]], [[0.0, -1.0]]]])
        slope = t64(np.array([0.1, 0.5]).reshape(1, 2, 1, 1))
        out = L.prelu(x, slope)
        assert out.data == pytest.approx(
            np.array([[[[-0.2, 3.0]], [[0.0, -0.5]]]]), abs=1e-12)

    def test_slope_shape_contract(self):
        with pytest.raises(ShapeError):
            L.prelu(t64(np.zeros((1, 2, 2, 2))), t64(np.zeros((1, 3, 1, 1))))


class TestMaskedConv:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("kind", ["A", "B"])
    def test_equals_conv_with_masked_weight(self, k, kind):
        # the rows above the centre and the taps left of it (mask A), plus
        # the centre itself (mask B)
        mid = k // 2
        mask = np.zeros((k, k))
        mask[:mid] = 1.0
        mask[mid, :mid] = 1.0
        mask[mid, mid] = kind == "B"
        rng = np.random.default_rng(4 + k)
        x = rng.normal(size=(2, 3, 6, 7))
        w = rng.normal(size=(4, 3, k, k))
        b = rng.normal(size=(1, 4, 1, 1))
        r = rng.normal(size=(2, 4, 6, 7))
        grads = []
        for op, weight in ((lambda *a: L.masked_conv2d(*a, kind=kind), w),
                           (L.conv2d, w * mask)):
            ts = [t64(a, grad=True) for a in (x, weight, b)]
            out = op(*ts)
            T.backward(T.sum_all(T.mul(out, t64(r))))
            grads.append([out.data] + [t.grad for t in ts])
        (out, dx, dw, db), (want, want_dx, want_dw, want_db) = grads
        assert np.array_equal(out, want)
        assert np.array_equal(dx, want_dx)
        assert np.array_equal(dw, want_dw * mask)
        assert np.all(dw[:, :, mask == 0] == 0.0)
        assert np.array_equal(db, want_db)

    def test_bad_kind(self):
        x, w = t64(np.zeros((1, 2, 4, 4))), t64(np.zeros((2, 2, 3, 3)))
        for kind in ("C", ""):
            with pytest.raises(ContractError):
                L.masked_conv2d(x, w, kind=kind)

    @pytest.mark.parametrize("kind", ["A", "B"])
    def test_causality(self, kind):
        # perturbing the input at one position may only change outputs at
        # strictly later raster positions (mask A) or at that position and
        # later (mask B)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 2, 6, 7))
        w = rng.normal(size=(2, 2, 5, 5))
        py, px = 3, 4
        x2 = x.copy()
        x2[:, :, py, px] += 1.0
        o1 = L.masked_conv2d(t64(x), t64(w), kind=kind).data
        o2 = L.masked_conv2d(t64(x2), t64(w), kind=kind).data
        diff = np.abs(o1 - o2).max(axis=(0, 1))
        flat = diff.reshape(-1)
        cut = py * 7 + px
        before = flat[:cut + 1] if kind == "A" else flat[:cut]
        assert np.all(before == 0.0)
        assert flat[cut if kind == "B" else cut + 1:].max() > 0.0

    def test_stack_is_causal(self):
        # an A-masked layer followed by B-masked layers stays causal:
        # no output position sees its own input
        spec = L.context_spec(2, hidden=4)
        params = L.ParamStore(np.float64)
        net = L.make_network(spec, params, "ctx", rng=np.random.default_rng(6))
        x = np.random.default_rng(7).normal(size=(1, 2, 5, 6))
        base = net(t64(x)).data
        for pos in [(0, 0), (2, 3), (4, 5)]:
            x2 = x.copy()
            x2[:, :, pos[0], pos[1]] += 0.7
            out = net(t64(x2)).data
            cut = pos[0] * 6 + pos[1]
            d = np.abs(out - base).max(axis=(0, 1)).reshape(-1)
            assert np.all(d[:cut + 1] == 0.0)


class TestGradients:
    TOL = 1e-6

    def test_conv_grads(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(scale=0.3, size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 3, 1, 1)), requires_grad=True)

        def f(xi, wi, bi):
            y = L.conv2d(xi, wi, bias=bi, stride=2)
            return T.sum_all(T.mul(y, y))

        assert T.grad_check(f, [x, w, b]) < self.TOL

    def test_tconv_grads(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(1, 3, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(scale=0.3, size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 2, 1, 1)), requires_grad=True)

        def f(xi, wi, bi):
            y = L.tconv2d(xi, wi, bias=bi, stride=2)
            return T.sum_all(T.mul(y, y))

        assert T.grad_check(f, [x, w, b]) < self.TOL

    def test_prelu_grads_away_from_kink(self):
        rng = np.random.default_rng(23)
        mag = rng.uniform(0.5, 1.5, size=(2, 3, 4, 4))
        sign = rng.choice([-1.0, 1.0], size=mag.shape)
        x = Tensor(mag * sign, requires_grad=True)
        slope = Tensor(rng.uniform(0.1, 0.4, size=(1, 3, 1, 1)), requires_grad=True)

        def f(xi, si):
            y = L.prelu(xi, si)
            return T.sum_all(T.mul(y, y))

        assert T.grad_check(f, [x, slope]) < self.TOL

    def test_gdn_grads(self, monkeypatch):
        # both forms; the batch of two runs in bands of 4 pixels, 9 per
        # image, and its forward pass matches the loop oracle
        rng = np.random.default_rng(24)
        for shape, band in (((1, 2, 4, 4), L.BAND_CELLS), ((2, 3, 5, 7), 2 * 3 * 4)):
            monkeypatch.setattr(L, "BAND_CELLS", band)
            c = shape[1]
            for inverse in (False, True):
                x = Tensor(rng.normal(size=shape), requires_grad=True)
                beta = Tensor(rng.uniform(0.4, 1.0, size=(1, c, 1, 1)), requires_grad=True)
                gamma = Tensor(rng.uniform(0.2, 0.6, size=(c, c, 1, 1)), requires_grad=True)
                r = Tensor(rng.normal(size=shape))

                def f(xi, bi, gi):
                    y = L.gdn(xi, bi, gi, inverse=inverse)
                    return T.sum_all(T.mul(T.mul(y, y), r))

                got = L.gdn(x, beta, gamma, inverse=inverse).data
                want = gdn_oracle(x.data, beta.data, gamma.data, inverse)
                assert got == pytest.approx(want, abs=1e-12)
                assert T.grad_check(f, [x, beta, gamma]) < self.TOL, (shape, inverse)

    def test_masked_conv_grads(self):
        rng = np.random.default_rng(25)
        x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(scale=0.3, size=(2, 2, 3, 3)), requires_grad=True)

        def f(xi, wi):
            y = L.masked_conv2d(xi, wi, kind="A")
            return T.sum_all(T.mul(y, y))

        assert T.grad_check(f, [x, w]) < self.TOL


class TestConvEdges:
    """The conv node hands the engine one VJP per input."""

    def test_frozen_input_runs_no_input_vjp(self, monkeypatch):
        rng = np.random.default_rng(26)
        calls = []
        transposed = L._transposed

        def counted(*args):
            calls.append(1)
            return transposed(*args)

        monkeypatch.setattr(L, "_transposed", counted)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        for x_grad, want in ((False, 0), (True, 1)):
            x = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=x_grad)
            loss = T.sum_all(L.conv2d(x, w, stride=2))
            calls.clear()
            T.backward(loss)
            assert len(calls) == want
            assert (x.grad is not None) == x_grad

    def test_vjps_read_weights_when_backward_runs(self):
        rng = np.random.default_rng(27)
        x_arr = rng.normal(size=(2, 2, 7, 6))
        w_old, w_new = (rng.normal(size=(3, 2, 3, 3)) for _ in range(2))
        b_arr = rng.normal(size=(1, 3, 1, 1))
        r = Tensor(rng.normal(size=(2, 3, 4, 3)))
        grads = []
        for build_w in (w_old, w_new):
            x, w, b = (Tensor(a.copy(), requires_grad=True) for a in (x_arr, build_w, b_arr))
            loss = T.sum_all(T.mul(L.conv2d(x, w, bias=b, stride=2), r))
            w.data = w_new.copy()   # an optimizer step between forward and backward
            T.backward(loss)
            grads.append((x.grad, w.grad, b.grad))
        for kept, fresh in zip(*grads):
            assert np.array_equal(kept, fresh)


class TestConvContracts:
    """Each entry point rejects a kernel or stride that the padding rule
    cannot serve, before it allocates anything for the input."""

    X = np.zeros((1, 4, 256, 256))

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            fn()
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("op", ["conv2d", "tconv2d", "masked_conv2d"])
    def test_even_kernel(self, op, k):
        call = {"conv2d": lambda x, w: L.conv2d(x, w, stride=2),
                "tconv2d": lambda x, w: L.tconv2d(x, w, stride=2),
                "masked_conv2d": lambda x, w: L.masked_conv2d(x, w, kind="B")}[op]
        x, w = t64(self.X), t64(np.zeros((4, 4, k, k)))

        def run():
            with pytest.raises(ShapeError, match="odd"):
                call(x, w)

        assert self._peak(run) < self.X.nbytes // 8

    @pytest.mark.parametrize("stride", [0, -1])
    @pytest.mark.parametrize("op", [L.conv2d, L.tconv2d])
    def test_stride_below_one(self, op, stride):
        x, w = t64(self.X), t64(np.zeros((4, 4, 3, 3)))

        def run():
            with pytest.raises(ContractError, match="stride"):
                op(x, w, stride=stride)

        assert self._peak(run) < self.X.nbytes // 8


class TestColumnBands:
    """Every pass walks its output grid in bands of rows; with the cell
    budget of each pass cut to three rows of its own columns, each pass
    spans several bands (3, 3 and 1 rows for seven output rows), and every
    pass still matches the loop oracles."""

    ROWS = 3

    @classmethod
    def _three_rows(cls, monkeypatch):
        """Give every call of the column builder a budget of ROWS rows of
        its own columns; return the band heights of each call."""
        columns, passes = L._columns, []

        def banded(a, before, k, stride, oh, ow):
            n, c = a.shape[:2]
            monkeypatch.setattr(L, "BAND_CELLS", cls.ROWS * c * k * k * n * ow)
            passes.append([])
            for i0, i1, cols in columns(a, before, k, stride, oh, ow):
                passes[-1].append(i1 - i0)
                yield i0, i1, cols

        monkeypatch.setattr(L, "_columns", banded)
        return passes

    @staticmethod
    def _grads(layer, x, w, b, r):
        ts = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        out = layer(*ts)
        T.backward(T.sum_all(T.mul(out, Tensor(r))))
        return out.data, ts[1].grad, ts[0].grad

    @classmethod
    def _spans_bands(cls, passes):
        # forward, input gradient and weight gradient each run in bands
        return len(passes) == 3 and all(len(p) > 1 and max(p) == cls.ROWS for p in passes)

    def test_bands_cover_rows(self, monkeypatch):
        passes = self._three_rows(monkeypatch)
        big = np.zeros((1, 2, 13, 9))
        bands = [(i0, i1, cols.shape) for i0, i1, cols in L._columns(big, 1, 3, 2, 7, 5)]
        assert bands == [(0, 3, (18, 15)), (3, 6, (18, 15)), (6, 7, (18, 5))]
        assert passes == [[3, 3, 1]]

    @pytest.mark.parametrize("stride,k,n", itertools.product((1, 2, 3), (1, 3, 5), (1, 2)))
    def test_conv(self, monkeypatch, stride, k, n):
        # the conv runs the transposed pass as its input gradient
        rng = np.random.default_rng(stride * 100 + k * 10 + n)
        x = rng.normal(size=(n, 3, 6 * stride + 1, 6))
        w, b = rng.normal(size=(4, 3, k, k)), rng.normal(size=(1, 4, 1, 1))
        r = rng.normal(size=(n, 4, 7, -(-6 // stride)))
        passes = self._three_rows(monkeypatch)
        out, dw, dx = self._grads(lambda *a: L.conv2d(*a, stride=stride), x, w, b, r)
        assert out == pytest.approx(conv_oracle(x, w, stride) + b, abs=1e-12)
        assert dw == pytest.approx(weight_grad_oracle(x, r, stride, k), abs=1e-12)
        assert dx == pytest.approx(scatter_reference(r, w, stride, k * k, x.shape), abs=1e-12)
        assert self._spans_bands(passes)

    @pytest.mark.parametrize("stride,k,n", itertools.product((1, 2, 3), (1, 3, 5), (1, 2)))
    def test_tconv(self, monkeypatch, stride, k, n):
        # the tconv runs the transposed pass forward, gather as its input
        # gradient and takes its weight gradient over columns of the big
        # output grid
        rng = np.random.default_rng(stride * 100 + k * 10 + n + 1)
        x = rng.normal(size=(n, 3, 7, 5))
        w, b = rng.normal(size=(3, 4, k, k)), rng.normal(size=(1, 4, 1, 1))
        r = rng.normal(size=(n, 4, 7 * stride, 5 * stride))
        passes = self._three_rows(monkeypatch)
        out, dw, dx = self._grads(lambda *a: L.tconv2d(*a, stride=stride), x, w, b, r)
        assert out == pytest.approx(tconv_oracle(x, w, stride) + b, abs=1e-12)
        assert dx == pytest.approx(conv_oracle(r, w, stride), abs=1e-12)
        assert dw == pytest.approx(weight_grad_oracle(r, x, stride, k), abs=1e-12)
        assert self._spans_bands(passes)

    @pytest.mark.parametrize("kind,k,n", itertools.product(("A", "B"), (1, 3, 5), (1, 2)))
    def test_masked(self, monkeypatch, kind, k, n):
        rng = np.random.default_rng(k * 10 + n + (kind == "B"))
        x = rng.normal(size=(n, 3, 7, 6))
        w, b = rng.normal(size=(4, 3, k, k)), rng.normal(size=(1, 4, 1, 1))
        r = rng.normal(size=(n, 4, 7, 6))
        passes = self._three_rows(monkeypatch)
        mask = causal_mask(k, kind)
        out, dw, dx = self._grads(lambda *a: L.masked_conv2d(*a, kind=kind), x, w, b, r)
        taps = k * k // 2 + (kind == "B")
        assert out == pytest.approx(conv_oracle(x, w * mask, 1) + b, abs=1e-12)
        assert dw == pytest.approx(weight_grad_oracle(x, r, 1, k) * mask, abs=1e-12)
        assert np.all(dw[:, :, mask == 0] == 0.0)
        assert dx == pytest.approx(scatter_reference(r, w, 1, taps, x.shape), abs=1e-12)
        assert self._spans_bands(passes)

    @pytest.mark.parametrize("kind,k", itertools.product(("A", "B"), (3, 5)))
    def test_float32_masked_equals_conv_with_masked_weight(self, monkeypatch, kind, k):
        rng = np.random.default_rng(40 + k)
        x, w, b, r = (rng.normal(size=s).astype(np.float32) for s in
                      ((2, 3, 7, 6), (4, 3, k, k), (1, 4, 1, 1), (2, 4, 7, 6)))
        self._three_rows(monkeypatch)
        mask = causal_mask(k, kind).astype(np.float32)
        out, dw, _ = self._grads(lambda *a: L.masked_conv2d(*a, kind=kind), x, w, b, r)
        want, want_dw, _ = self._grads(L.conv2d, x, w * mask, b, r)
        assert out.dtype == np.float32 and np.array_equal(out, want)
        assert np.array_equal(dw, want_dw * mask)

    def test_hd_gather_peak_memory(self):
        # the 3->32 k5 stride-2 first encoder layer of a 1088x1920 frame: the
        # call holds its output, one slab of padded input rows (at most
        # BAND_CELLS cells here), one band of columns and one band product,
        # never a padded copy of the input nor the 157 MB column matrix
        rng = np.random.default_rng(32)
        x = Tensor(rng.normal(size=(1, 3, 1088, 1920)).astype(np.float32))
        w = Tensor(rng.normal(scale=0.1, size=(32, 3, 5, 5)).astype(np.float32))
        tracemalloc.start()
        try:
            out = L.conv2d(x, w, stride=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slab = 4 * L.BAND_CELLS
        rows = L.BAND_CELLS // (75 * 960)
        band, product = 75 * rows * 960 * 4, 32 * rows * 960 * 4
        assert out.shape == (1, 32, 544, 960)
        assert peak <= out.data.nbytes + slab + band + product + 65536


class TestGraphFreeNetwork:
    """Under no_grad a Network adds bias, PReLU and GDN in place and writes
    a same-shape stride-1 layer past the first over its own input.  Its
    output is the graph forward's byte for byte, and the caller's input is
    left as it was, also when the buffers split the map into many bands
    (2,000 cells: one band per slab; 20,000: several bands per slab and
    several slabs per map)."""

    SPECS = {
        "gd": L.feature_spec(6, 16, 5, "gd"),
        "gs": L.feature_spec(22, 3, 5, "gs"),
        "hyp_enc": L.hyper_encoder_spec(8, 12, 6),
        # a first layer of the same shape must not write over the input
        "same": L.feature_spec(16, 16, 3, "gd"),
        "enc": L.encoder_spec(3, 8, 6, strides=(2, 2)),
        # a k 3 stride 2 tconv returns a cropped view: its GDN writes anew
        "dec_k3": L.decoder_spec(6, 8, 3, kernel=3, strides=(2, 2)),
    }

    @staticmethod
    def _net(spec, dtype, rng):
        params = L.ParamStore(dtype)
        net = L.make_network(spec, params, "n", rng=rng)
        for name, t in params.items():
            if name.endswith((".b", ".slope")):
                t.data[...] = rng.normal(scale=0.5, size=t.shape)
        return net

    @pytest.mark.parametrize("cells", [None, 2000, 20000])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,size", itertools.product((1, 2), ((37, 29), (64, 64))))
    @pytest.mark.parametrize("name", list(SPECS))
    def test_same_bytes_as_graph(self, monkeypatch, name, n, size, dtype, cells):
        if cells:
            monkeypatch.setattr(L, "BAND_CELLS", cells)
        rng = np.random.default_rng([n, *size, len(name)])
        spec = self.SPECS[name]
        net = self._net(spec, dtype, rng)
        x = rng.normal(size=(n, spec.layers[0].in_ch, *size)).astype(dtype)
        keep = x.copy()
        want = net(Tensor(x))
        assert want.requires_grad
        with T.no_grad():
            got = net(Tensor(x))
        assert same_bytes(got.data, want.data)
        assert same_bytes(x, keep)

    @pytest.mark.parametrize("spec,hidden", [
        # layer 0 makes a 16-channel map, layer 1 writes over it and layer
        # 2 reads it into the 3-channel output
        (L.feature_spec(22, 3, 5, "gs"), 16),
        # the GDN writes over its conv's output, the only map
        (L.NetworkSpec((L.ConvSpec(22, 16, 5, 1, False, "gdn"),)), 0),
    ])
    def test_holds_one_map(self, spec, hidden):
        # besides its maps a call holds a slab and a column buffer of about
        # BAND_CELLS cells each, one band product and one band temporary
        params = L.ParamStore(np.float32)
        net = L.make_network(spec, params, "n", rng=np.random.default_rng(5))
        x = Tensor(np.random.default_rng(6).normal(size=(1, 22, 256, 256)).astype(np.float32))
        with T.no_grad():
            tracemalloc.start()
            try:
                out = net(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= hidden * 256 * 256 * 4 + out.data.nbytes + 4 * L.BAND_CELLS * 4 + 131072


class TestSpecs:
    def test_convspec_contracts(self):
        with pytest.raises(ContractError):
            L.ConvSpec(2, 2, kernel=4)
        with pytest.raises(ContractError):
            L.ConvSpec(2, 2, activation="relu")
        with pytest.raises(ContractError):
            L.ConvSpec(2, 2, stride=2, mask="A")
        with pytest.raises(ContractError):
            L.ConvSpec(2, 4, 3, 1, False, "prelu", mask="C")
        with pytest.raises(ContractError):
            L.ConvSpec(2, 0)

    def test_network_channel_chain(self):
        with pytest.raises(ContractError):
            L.NetworkSpec((L.ConvSpec(2, 4), L.ConvSpec(3, 2)), role="x")

    @pytest.mark.parametrize("spec", [
        L.encoder_spec(3, 8, 12),
        L.decoder_spec(12, 8, 3),
        L.hyper_encoder_spec(12, 8, 6),
        L.hyper_decoder_spec(6, 8, 12),
        L.context_spec(6, hidden=8),
        L.feature_spec(6, 3, 5, "gd"),
        L.feature_spec(6, 3, 5, "gs"),
        L.pred_branch_spec(3, 8),
    ])
    def test_param_count_matches_store(self, spec):
        params = L.ParamStore(np.float64)
        L.make_network(spec, params, "n", rng=np.random.default_rng(0))
        assert params.total_params() == spec.param_count()
        assert [(n, t.shape) for n, t in params.items()] == list(spec.param_shapes("n").items())

    def test_param_shapes_in_store_order(self):
        assert list(L.ConvSpec(2, 4, 3, 2, True, "igdn").param_shapes().items()) == [
            ("w", (2, 4, 3, 3)), ("b", (1, 4, 1, 1)), ("beta", (1, 4, 1, 1)),
            ("gamma", (4, 4, 1, 1))]
        assert list(L.ConvSpec(2, 4, 5, 1, False, "prelu").param_shapes().items()) == [
            ("w", (4, 2, 5, 5)), ("b", (1, 4, 1, 1)), ("slope", (1, 4, 1, 1))]
        assert list(L.ConvSpec(2, 4, 1).param_shapes()) == ["w", "b"]

    def test_out_size(self):
        # a conv gives ceil(h/s), a transposed conv h*s
        spec = L.NetworkSpec((L.ConvSpec(1, 1, 3, 3), L.ConvSpec(1, 1, 3, 2, True),
                              L.ConvSpec(1, 1, 3, 2)))
        assert [spec.out_size(h) for h in (1, 2, 3, 4, 7)] == [1, 1, 1, 2, 3]

    def test_difference_transform_pair_count(self):
        # three 5x5 prelu layers 6->16->16->3 hold 10070 parameters each way
        gd, gs = L.feature_spec(6, 3, 5, "gd"), L.feature_spec(6, 3, 5, "gs")
        assert gd.param_count() == gs.param_count() == 10070
        assert gd.param_count() + gs.param_count() == 20140
        assert (gd.role, gs.role) == ("gd", "gs")

    def test_encoder_decoder_round_trip_shape(self):
        params = L.ParamStore(np.float64)
        rng = np.random.default_rng(1)
        enc = L.make_network(L.encoder_spec(3, 4, 6), params, "enc", rng=rng)
        dec = L.make_network(L.decoder_spec(6, 4, 3), params, "dec", rng=rng)
        x = t64(rng.normal(size=(1, 3, 16, 16)))
        y = enc(x)
        assert y.shape == (1, 6, 1, 1)
        out = dec(y)
        assert out.shape == (1, 3, 16, 16)


class TestIdentityInits:
    def test_difference_init_computes_difference(self):
        params = L.ParamStore(np.float64)
        net = L.make_network(L.feature_spec(6, 3, 5, "gd"), params, "gd",
                             init="identity-difference")
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3, 6, 6))
        xt = rng.normal(size=(2, 3, 6, 6))
        out = net(T.concat_channels([t64(x), t64(xt)]))
        assert out.data == pytest.approx(x - xt, abs=1e-12)

    def test_sum_init_computes_sum(self):
        params = L.ParamStore(np.float64)
        net = L.make_network(L.feature_spec(6, 3, 5, "gs"), params, "gs", init="identity-sum")
        rng = np.random.default_rng(10)
        xt = rng.normal(size=(1, 3, 5, 5))
        d = rng.normal(size=(1, 3, 5, 5))
        out = net(T.concat_channels([t64(xt), t64(d)]))
        assert out.data == pytest.approx(xt + d, abs=1e-12)

    def test_identity_init_rejects_narrow_layers(self):
        # a 6-channel input carries 3 channels; a 2-channel output cannot
        with pytest.raises(ContractError):
            L.make_network(L.feature_spec(6, 2, 5, "gs"), L.ParamStore(np.float64), "gs",
                           init="identity-sum")

    def test_identity_init_requires_prelu(self):
        params = L.ParamStore(np.float64)
        with pytest.raises(ContractError):
            L.make_network(L.encoder_spec(3, 4, 6), params, "e", init="identity-difference")

    def test_random_init_requires_rng(self):
        params = L.ParamStore(np.float64)
        with pytest.raises(ContractError):
            L.make_network(L.feature_spec(6, 3, 5, "gd"), params, "g")

    def test_unknown_init_rejected(self):
        params = L.ParamStore(np.float64)
        with pytest.raises(ContractError):
            L.make_network(L.feature_spec(6, 3, 5, "gd"), params, "g", init="xavier")


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = L.ParamStore()
        store.add("a", np.zeros((1, 1, 1, 1)))
        with pytest.raises(ContractError):
            store.add("a", np.zeros((1, 1, 1, 1)))

    def test_round_trip_through_arrays(self):
        store = L.ParamStore(np.float32)
        rng = np.random.default_rng(12)
        store.add("w", rng.normal(size=(2, 3, 3, 3)))
        store.add("b", rng.normal(size=(1, 2, 1, 1)))
        snapshot = {n: a.copy() for n, a in store.arrays().items()}

        other = L.ParamStore(np.float32)
        other.add("w", np.zeros((2, 3, 3, 3)))
        other.add("b", np.zeros((1, 2, 1, 1)))
        other.load_arrays(snapshot)
        for name in snapshot:
            assert np.array_equal(other[name].data, store[name].data)

    def test_load_contracts(self):
        store = L.ParamStore()
        store.add("w", np.zeros((1, 1, 1, 1)))
        with pytest.raises(ContractError):
            store.load_arrays({})
        with pytest.raises(ShapeError):
            store.load_arrays({"w": np.zeros((2, 1, 1, 1))})
        with pytest.raises(ContractError):
            store.load_arrays({"w": np.zeros((1, 1, 1, 1)), "v": np.zeros((1, 1, 1, 1))})

    def test_totals_and_zero_grads(self):
        store = L.ParamStore(np.float64)
        a = store.add("enc.w", np.zeros((2, 2, 1, 1)))
        store.add("dec.w", np.zeros((3, 1, 1, 1)))
        assert store.total_params() == 7
        a.grad = np.ones_like(a.data)
        store.zero_grads()
        assert a.grad is None
