"""Training-loop checks: the rate-distortion loss against hand arithmetic,
Adam against an explicit two-step recurrence, the 30 dB routing rule on
constructed pairs, and the pair synthesizer against scripted-rng slicing
oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest

import gdclab.tensor as T
from gdclab import coders as C
from gdclab import training as TR
from gdclab.errors import ContractError, NumericError, ShapeError, TrainingError
from gdclab.evaluation import psnr
from gdclab.layers import ParamStore


class FixedRng:
    """Scripted stand-in for a Generator: integers() pops queued values,
    normal() returns zeros."""

    def __init__(self, vals):
        self.vals = list(vals)

    def integers(self, lo, hi=None, size=None):
        return np.int64(self.vals.pop(0))

    def normal(self, scale=1.0, size=None):
        return np.zeros(size)


@pytest.fixture(scope="module")
def corpus():
    return TR.make_corpus(np.random.default_rng(9), 20, patch=32)


class TestTrainConfig:
    def test_defaults(self):
        tc = TR.TrainConfig()
        assert tc.lmbda == 1024.0
        assert tc.patch == 32

    def test_any_positive_lambda(self):
        # train --lambda takes any positive value
        assert TR.TrainConfig(lmbda=300.0).lmbda == 300.0

    def test_other_contracts(self):
        with pytest.raises(ContractError):
            TR.TrainConfig(lr=0.0)
        with pytest.raises(ContractError):
            TR.TrainConfig(lmbda=-1.0)
        with pytest.raises(ContractError):
            TR.TrainConfig(steps=-1)
        with pytest.raises(ContractError):
            TR.TrainConfig(seed=-1)
        for bad in ({"lmbda": math.nan}, {"lmbda": math.inf}, {"lr": math.nan},
                    {"lr": math.inf}):
            with pytest.raises(ContractError):
                TR.TrainConfig(**bad)


class TestStrideRule:
    """The coder's total stride, not the train config, decides which frame
    sizes train."""

    def _pairs(self, size):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.2, 0.8, size=(2, 1, 3, size, size)).astype(np.float32)
        return [(x[0], x[1])]

    def test_stride_8_coder_trains_on_24(self):
        coder = C.Coder.new(C.CoderConfig.desk("diff", enc_strides=(2, 2, 2)), seed=1)
        stats, _ = TR.train_epoch(coder, self._pairs(24), TR.TrainConfig(steps=1, patch=24))
        assert stats.steps == 1 and np.isfinite(stats.mean_loss)

    def test_default_strides_reject_20(self):
        coder = C.Coder.new(C.CoderConfig.desk("diff"), seed=1)
        with pytest.raises(ContractError):
            TR.train_epoch(coder, self._pairs(20), TR.TrainConfig(steps=1, patch=20))


class TestRdLoss:
    def test_worked_example(self):
        # (10/255)^2 distortion on the 255 scale is exactly 100; the rate
        # term contributes 1024 * 0.05 bits/pixel = 51.2.
        x = T.Tensor(np.zeros((1, 3, 8, 8), dtype=np.float64))
        xh = T.Tensor(np.full((1, 3, 8, 8), 10.0 / 255.0, dtype=np.float64))
        rate = T.Tensor(np.full((1, 1, 1, 1), 0.05 * 64, dtype=np.float64))
        loss = TR.rd_loss(x, xh, rate, 1024.0, 64)
        assert loss.item() == pytest.approx(151.2, abs=1e-9)

    def test_zero_loss(self):
        x = T.Tensor(np.zeros((1, 3, 8, 8), dtype=np.float64))
        zero_rate = T.Tensor(np.zeros((1, 1, 1, 1), dtype=np.float64))
        assert TR.rd_loss(x, x, zero_rate, 1024.0, 64).item() == 0.0

    def test_gradient_formula(self):
        # dL/dx_hat = 2 (x_hat - x) * 255^2 / element_count; the rate term
        # does not involve x_hat at all.
        x = T.Tensor(np.zeros((1, 3, 8, 8), dtype=np.float64))
        rate = T.Tensor(np.full((1, 1, 1, 1), 3.2, dtype=np.float64))
        xh = T.Tensor(np.random.default_rng(0).normal(size=(1, 3, 8, 8)),
                      requires_grad=True)
        loss = TR.rd_loss(x, xh, rate, 1024.0, 64)
        T.backward(loss)
        want = 2.0 * (xh.data - x.data) * 255.0 ** 2 / xh.size
        assert np.allclose(xh.grad, want, rtol=1e-12)
        err = T.grad_check(lambda v: TR.rd_loss(x, v, rate, 1024.0, 64), [xh])
        assert err < 1e-6

    def test_contracts(self):
        x = T.Tensor(np.zeros((1, 3, 8, 8)))
        rate = T.Tensor(np.zeros((1, 1, 1, 1)))
        with pytest.raises(ShapeError):
            TR.rd_loss(x, T.Tensor(np.zeros((1, 3, 8, 4))), rate, 1024.0, 64)
        with pytest.raises(ContractError):
            TR.rd_loss(x, x, rate, 1024.0, 0)


class TestAdam:
    def _store(self, value=0.0):
        ps = ParamStore(np.float64)
        ps.add("p", np.full((1, 1, 1, 1), value))
        return ps

    def test_first_step_magnitude(self):
        # With a constant gradient the bias-corrected first step is
        # lr / (1 + eps), just shy of the learning rate.
        ps = self._store()
        st = TR.adam_init(ps)
        ps["p"].grad = np.ones((1, 1, 1, 1))
        TR.adam_step(ps, st, 1e-4)
        delta = abs(ps["p"].data[0, 0, 0, 0])
        assert 0.99e-4 <= delta <= 1.0e-4
        assert st.step == 1

    def test_zero_gradient_fresh_state(self):
        ps = self._store(3.3)
        st = TR.adam_init(ps)
        ps["p"].grad = np.zeros((1, 1, 1, 1))
        TR.adam_step(ps, st, 1e-4)
        assert ps["p"].data[0, 0, 0, 0] == 3.3

    def test_missing_gradient_counts_as_zero(self):
        ps = self._store(3.3)
        st = TR.adam_init(ps)
        assert ps["p"].grad is None
        TR.adam_step(ps, st, 1e-4)
        assert ps["p"].data[0, 0, 0, 0] == 3.3
        assert st.step == 1

    def test_two_step_recurrence(self):
        ps = self._store()
        st = TR.adam_init(ps)
        g1, g2, lr = 0.7, -0.2, 1e-4
        b1, b2, eps = 0.9, 0.999, 1e-8
        m = v = p = 0.0
        for k, g in enumerate((g1, g2), start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            p -= lr * (m / (1 - b1 ** k)) / (math.sqrt(v / (1 - b2 ** k)) + eps)
        for g in (g1, g2):
            ps["p"].grad = np.full((1, 1, 1, 1), g)
            TR.adam_step(ps, st, lr)
        assert ps["p"].data[0, 0, 0, 0] == pytest.approx(p, abs=1e-12)
        assert st.step == 2

    def test_non_finite_gradient_rejected_before_mutation(self):
        ps = self._store(1.0)
        st = TR.adam_init(ps)
        ps["p"].grad = np.full((1, 1, 1, 1), np.nan)
        with pytest.raises(NumericError):
            TR.adam_step(ps, st, 1e-4)
        assert ps["p"].data[0, 0, 0, 0] == 1.0
        assert st.step == 0
        assert np.all(st.m["p"] == 0.0) and np.all(st.v["p"] == 0.0)


def pair_at_db(db, shape=(1, 1, 32, 32)):
    d = 10.0 ** (-db / 20.0)
    return np.zeros(shape), np.full(shape, d)


class TestRouting:
    @pytest.mark.parametrize("db", [25.0, 29.9, 30.1, 35.0])
    def test_threshold_sweep(self, db):
        x, xt = pair_at_db(db)
        got = TR.select_xgdc_target(x, xt)
        # The measured value can differ from the nominal dB in the last
        # ulp, so derive the expected side from the measurement itself.
        p = psnr(xt, x)
        assert abs(p - db) < 1e-9
        assert got == ("train-d" if p > 30.0 else "train-g")

    def test_exactly_at_threshold_routes_to_g(self):
        # A constant difference whose PSNR is exactly 30.0 in float64;
        # the strict > comparison must send it to the generalized branch.
        d = 0.03162277660168379
        assert -10.0 * math.log10(d * d) == 30.0
        x = np.zeros((1, 1, 32, 32))
        xt = np.full((1, 1, 32, 32), d)
        assert psnr(xt, x) == 30.0
        assert TR.select_xgdc_target(x, xt) == "train-g"

    def test_accepts_tensors(self):
        x, xt = pair_at_db(35.0)
        assert TR.select_xgdc_target(T.Tensor(x), T.Tensor(xt)) == "train-d"
        x, xt = pair_at_db(25.0)
        assert TR.select_xgdc_target(T.Tensor(x), T.Tensor(xt)) == "train-g"


class TestBilinearCrop:
    def setup_method(self):
        self.img = (np.arange(3 * 48 * 48, dtype=np.float32)
                    .reshape(1, 3, 48, 48) / (3 * 48 * 48))

    def test_integer_origin_is_a_slice(self):
        out = TR.bilinear_crop(self.img, 5, 7, 16)
        assert np.array_equal(out, self.img[:, :, 5:21, 7:23])

    def test_half_offset_averages_neighbors(self):
        out = TR.bilinear_crop(self.img, 10.5, 12.5, 16)
        win = self.img[:, :, 10:27, 12:29].astype(np.float64)
        want = 0.25 * (win[:, :, :16, :16] + win[:, :, :16, 1:]
                       + win[:, :, 1:, :16] + win[:, :, 1:, 1:])
        assert np.allclose(out, want, atol=1e-7)

    def test_contracts(self):
        with pytest.raises(ContractError):
            TR.bilinear_crop(self.img, 40, 0, 16)   # runs off the bottom
        with pytest.raises(ContractError):
            TR.bilinear_crop(self.img, -0.5, 0, 16)
        with pytest.raises(ShapeError):
            TR.bilinear_crop(self.img[0], 0, 0, 16)


class TestQuantize:
    def test_hand_values(self):
        arr = np.array([11.0 / 255.0, 250.0 / 255.0], dtype=np.float32)
        arr = arr.reshape(1, 1, 1, 2)
        out = TR.quantize_intensities(arr, 4.0)
        assert out[0, 0, 0, 0] == pytest.approx(12.0 / 255.0, abs=1e-7)
        out = TR.quantize_intensities(arr, 16.0)
        # 250/16 rounds up to 16 steps = 256/255, clipped back to 1.
        assert out[0, 0, 0, 1] == 1.0
        assert out.dtype == np.float32

    def test_zero_step_is_identity(self):
        arr = np.full((1, 1, 2, 2), 0.3, dtype=np.float32)
        assert TR.quantize_intensities(arr, 0.0) is arr


class TestMakePair:
    def setup_method(self):
        self.ramp = (np.arange(3 * 48 * 48, dtype=np.float32)
                     .reshape(1, 3, 48, 48) / (3 * 48 * 48))

    def test_identity_knobs_give_equality(self):
        rng = np.random.default_rng(3)
        img = TR.synthetic_image(rng, 48, 48)
        gen = TR.GenConfig(patch=32, max_shift=0, subpixel=False)
        x, xt = TR.make_pair(img, gen, rng)
        assert np.array_equal(x, xt)
        assert psnr(xt, x) == 99.0

    def test_integer_shift_is_a_translated_slice(self):
        gen = TR.GenConfig(patch=16, max_shift=2, subpixel=False)
        rng = FixedRng([10, 12, 0, 2])   # oy, ox, dy, dx
        x, xt = TR.make_pair(self.ramp, gen, rng)
        assert np.array_equal(x, self.ramp[:, :, 10:26, 12:28])
        assert np.array_equal(xt, self.ramp[:, :, 10:26, 14:30])
        # on this ramp a two-column shift adds exactly two index steps
        assert np.allclose(xt, x + 2.0 / (3 * 48 * 48), atol=1e-7)

    def test_subpixel_shift_averages_neighbors(self):
        gen = TR.GenConfig(patch=16, max_shift=0, subpixel=True)
        rng = FixedRng([10, 12, 1, 1])   # oy, ox, then two half-step flags
        x, xt = TR.make_pair(self.ramp, gen, rng)
        win = self.ramp[:, :, 10:27, 12:29].astype(np.float64)
        want = 0.25 * (win[:, :, :16, :16] + win[:, :, :16, 1:]
                       + win[:, :, 1:, :16] + win[:, :, 1:, 1:])
        assert np.allclose(xt, want, atol=1e-7)

    def test_quantization_lands_on_the_step_lattice(self):
        gen = TR.GenConfig(patch=16, max_shift=0, subpixel=False,
                           quant_step=32.0)
        x, xt = TR.make_pair(self.ramp, gen, np.random.default_rng(0))
        steps = xt.astype(np.float64) * (255.0 / 32.0)
        on_lattice = np.abs(steps - np.rint(steps)) < 1e-4
        clipped = (xt == 0.0) | (xt == 1.0)
        assert np.all(on_lattice | clipped)
        assert not np.array_equal(x, xt)

    def test_noise_stays_in_range(self):
        gen = TR.GenConfig(patch=16, max_shift=0, subpixel=False, noise=0.5)
        _, xt = TR.make_pair(self.ramp, gen, np.random.default_rng(1))
        assert xt.min() >= 0.0 and xt.max() <= 1.0

    def test_contracts(self):
        gen = TR.GenConfig(patch=32, max_shift=2)
        with pytest.raises(ContractError):
            TR.make_pair(self.ramp[:, :, :36, :], gen, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            TR.make_pair(self.ramp[0], gen, np.random.default_rng(0))

    def test_margin(self):
        assert TR.GenConfig(max_shift=2).margin() == 3
        assert TR.GenConfig(max_shift=0).margin() == 1


class TestSyntheticImage:
    def test_shape_range_and_determinism(self):
        a = TR.synthetic_image(np.random.default_rng(4), 40, 56)
        assert a.shape == (1, 3, 40, 56)
        assert a.dtype == np.float32
        assert a.min() >= 0.02 and a.max() <= 0.98
        b = TR.synthetic_image(np.random.default_rng(4), 40, 56)
        assert np.array_equal(a, b)


class TestCalibration:
    def test_lands_inside_the_band(self):
        imgs = [TR.synthetic_image(np.random.default_rng(100 + i), 48, 48)
                for i in range(6)]
        step, achieved = TR.calibrate_quant_step(
            imgs, TR.GenConfig(patch=32, max_shift=1), seed=5)
        assert step > 0.0
        assert 34.0 <= achieved <= 36.0

    def test_each_step_is_measured_once(self, monkeypatch):
        # every bisection step is evaluated on the whole corpus exactly once
        imgs = [TR.synthetic_image(np.random.default_rng(i), 64, 64) for i in range(4)]
        steps = []
        quantize = TR.quantize_intensities
        monkeypatch.setattr(TR, "quantize_intensities",
                            lambda arr, step: steps.append(step) or quantize(arr, step))
        TR.calibrate_quant_step(imgs, TR.GenConfig(patch=32, max_shift=1), seed=0)
        per_eval = len(imgs) * TR.CALIBRATION_PAIRS
        assert len(steps) == per_eval * len(set(steps))

    def test_unreachable_target(self, monkeypatch):
        monkeypatch.setattr(TR, "CALIBRATION_TARGET_DB", 200.0)
        monkeypatch.setattr(TR, "CALIBRATION_PAIRS", 1)
        imgs = [TR.synthetic_image(np.random.default_rng(0), 48, 48)]
        with pytest.raises(ContractError):
            TR.calibrate_quant_step(imgs, TR.GenConfig(patch=32, max_shift=0))


class TestCorpus:
    def test_sides_alternate(self, corpus):
        sides = [psnr(xt, x) > 30.0 for x, xt in corpus]
        assert sides[0::2] == [True] * 10
        assert sides[1::2] == [False] * 10

    def test_patch_shapes(self, corpus):
        for x, xt in corpus:
            assert x.shape == (1, 3, 32, 32)
            assert xt.shape == (1, 3, 32, 32)


class TestEpochs:
    def test_stats_defaults(self):
        st = TR.EpochStats()
        assert st.steps == 0 and st.mean_loss == 0.0
        assert math.isnan(st.mode_d_fraction)
        st.losses.append(1.0)
        assert TR.EpochStats().losses == []

    def test_loss_decreases_and_repeats_bit_for_bit(self, corpus):
        cfg = C.CoderConfig.desk("diff")
        pairs = corpus[:4]
        tc = TR.TrainConfig(lmbda=1024.0, steps=0, seed=7, patch=32)

        coder = C.Coder.new(cfg, seed=1)
        before = TR.evaluate_pairs(coder, pairs, tc.lmbda)
        assert math.isnan(before.mode_d_fraction)
        state = None
        for _ in range(6):
            stats, state = TR.train_epoch(coder, pairs, tc, state)
        assert stats.steps == 4 and len(stats.losses) == 4
        after = TR.evaluate_pairs(coder, pairs, tc.lmbda)
        assert after.mean_loss < before.mean_loss

        coder2 = C.Coder.new(cfg, seed=1)
        state2 = None
        for _ in range(6):
            _, state2 = TR.train_epoch(coder2, pairs, tc, state2)
        for name, t in coder.params.items():
            assert np.array_equal(t.data, coder2.params[name].data), name

    def test_empty_epoch_changes_nothing(self):
        cfg = C.CoderConfig("diff", core_width=8, latent=8, hyper_latent=4, pred_width=8,
                            ctx_width=4, enc_strides=(2, 2))
        coder = C.Coder.new(cfg, seed=2)
        snap = {n: t.data.copy() for n, t in coder.params.items()}
        stats, _ = TR.train_epoch(coder, [], TR.TrainConfig())
        assert stats.steps == 0
        assert all(np.array_equal(coder.params[n].data, snap[n]) for n in snap)

    def test_non_finite_loss_raises(self, corpus):
        coder = C.Coder.new(C.CoderConfig.desk("diff"), seed=3)
        for name, t in coder.params.items():
            if name.startswith("dec.") and name.endswith(".w"):
                t.data = np.full_like(t.data, np.nan)
                break
        with pytest.raises(TrainingError) as exc:
            TR.train_epoch(coder, corpus[:1], TR.TrainConfig())
        assert exc.value.step == 0

    def test_evaluate_leaves_params_untouched(self, corpus):
        coder = C.Coder.new(C.CoderConfig.desk("xgdc"), seed=4)
        snap = {n: t.data.copy() for n, t in coder.params.items()}
        stats = TR.evaluate_pairs(coder, corpus[:2], 1024.0)
        assert stats.steps == 2
        # one pair above the threshold, one below
        assert stats.mode_d_fraction == 0.5
        assert all(np.array_equal(coder.params[n].data, snap[n]) for n in snap)
        again = TR.evaluate_pairs(coder, corpus[:2], 1024.0)
        assert again.mean_loss == stats.mean_loss
