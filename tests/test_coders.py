"""Coder-family behavior: per-kind wiring, encode/decode bit-exactness,
rate bookkeeping, and the identity-initialized equivalence between the
generalized coder and the plain difference coder."""

import dataclasses
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import gdclab.tensor as T
from gdclab import coders as C
from gdclab import entropy as E
from gdclab import layers as L
from gdclab.errors import ContractError, ShapeError, StreamError
from gdclab.fileio import BitstreamContainer


def frame_pair(rng, h, w, scale=0.05):
    base = rng.uniform(0.2, 0.8, size=(1, 3, h, w)).astype(np.float32)
    xt = np.clip(base + rng.normal(scale=scale, size=base.shape), 0, 1)
    return base, xt.astype(np.float32)


class TestCoderConfig:
    def test_feature_defaults(self):
        assert C.CoderConfig("gdc").features == 3
        assert C.CoderConfig("xgdc").features == 16
        assert C.CoderConfig("diff").features == 16
        assert C.CoderConfig("gdc", channels=5).features == 5
        assert C.CoderConfig("gdc", features=7).features == 7

    def test_contracts(self):
        with pytest.raises(ContractError):
            C.CoderConfig("h265")
        with pytest.raises(ContractError):
            C.CoderConfig("diff", latent=0)
        with pytest.raises(ContractError):
            C.CoderConfig("diff", kernel=4)
        with pytest.raises(ContractError):
            C.CoderConfig("diff", enc_strides=())
        with pytest.raises(ContractError):
            C.CoderConfig("diff", enc_strides=(0, 2))

    def test_stride_product(self):
        assert C.CoderConfig("diff").stride_product == 16
        assert C.CoderConfig("diff", enc_strides=(2, 2)).stride_product == 4

    def test_presets(self):
        desk = C.CoderConfig.desk("xgdc")
        assert (desk.core_width, desk.latent, desk.hyper_latent) == (32, 32, 16)


class TestCoderSpecs:
    @pytest.mark.parametrize("kind,enc_in,dec_out", [
        ("diff", 3, 3),
        ("codecnet", 6, 3),
        ("gdc", 3, 3),       # features defaults to channels
        ("xgdc", 19, 19),    # 16 features + 3 residual channels
    ])
    def test_channel_wiring(self, kind, enc_in, dec_out):
        cfg = C.CoderConfig(kind)
        specs = C.coder_specs(cfg)
        assert specs["enc"].layers[0].in_ch == enc_in
        assert specs["dec"].layers[-1].out_ch == dec_out
        dec_in = cfg.latent + (cfg.pred_width if kind == "codecnet" else 0)
        assert specs["dec"].layers[0].in_ch == dec_in

    def test_kind_specific_nets(self):
        assert "pred" in C.coder_specs(C.CoderConfig("codecnet"))
        assert "gd" in C.coder_specs(C.CoderConfig("gdc"))
        assert "gs" in C.coder_specs(C.CoderConfig("xgdc"))
        diff_specs = C.coder_specs(C.CoderConfig("diff"))
        assert "pred" not in diff_specs and "gd" not in diff_specs

    def test_gd_consumes_both_frames(self):
        specs = C.coder_specs(C.CoderConfig("xgdc"))
        assert specs["gd"].layers[0].in_ch == 6
        assert specs["gd"].layers[-1].out_ch == 16
        # synthesis sees the prediction next to the decoded features
        assert specs["gs"].layers[0].in_ch == 3 + 19


    @pytest.mark.parametrize("kind", C.KINDS)
    def test_out_size_matches_forward(self, kind):
        # the decoder takes its latent sizes from out_size, never from a pass
        coder = C.Coder.new(C.CoderConfig.desk(kind), seed=0)
        with T.no_grad():
            for prefix, net in coder.nets.items():
                for h in range(1, 41):
                    w = 41 - h
                    x = T.Tensor(np.zeros((1, net.spec.layers[0].in_ch, h, w), np.float32))
                    want = (net.spec.out_size(h), net.spec.out_size(w))
                    assert net(x).shape[2:] == want, (prefix, h, w)

    @pytest.mark.parametrize("cfg", [C.CoderConfig.desk("diff"), C.CoderConfig("diff")])
    def test_hyper_round_trip_covers_latent(self, cfg):
        # the hyper decoder's map always covers the latent it is cropped to
        specs = C.coder_specs(cfg)
        short = [h for h in range(1, 5001)
                 if specs["hyp_dec"].out_size(specs["hyp_enc"].out_size(h)) < h]
        assert not short


class TestPadToMultiple:
    def test_no_op_when_divisible(self):
        arr = np.zeros((1, 3, 32, 48))
        assert C.pad_to_multiple(arr, 16) is arr

    def test_reflect_padding(self):
        arr = np.arange(3 * 5, dtype=np.float64).reshape(1, 1, 3, 5)
        out = C.pad_to_multiple(arr, 4)
        assert out.shape == (1, 1, 4, 8)
        # reflection about the last row/column
        assert out[0, 0, 3, 0] == arr[0, 0, 1, 0]
        assert out[0, 0, 0, 5] == arr[0, 0, 0, 3]

    def test_edge_fallback_for_tiny_frames(self):
        arr = np.ones((1, 1, 2, 2))
        out = C.pad_to_multiple(arr, 16)
        assert out.shape == (1, 1, 16, 16)
        assert np.all(out == 1.0)


class TestForward:
    RECON_PATTERN = {"diff": (True, False), "codecnet": (False, True),
                     "gdc": (False, True), "xgdc": (True, True)}

    @pytest.mark.parametrize("kind", C.KINDS)
    def test_population_and_rates(self, kind):
        coder = C.Coder.new(C.CoderConfig.desk(kind), seed=3)
        x, xt = frame_pair(np.random.default_rng(42), 32, 32)
        out = coder.forward(T.Tensor(x), T.Tensor(xt), mode="noise",
                            rng=np.random.default_rng(0))
        has_d, has_g = self.RECON_PATTERN[kind]
        assert (out.x_hat_d is not None) == has_d
        assert (out.x_hat_g is not None) == has_g
        for rec in (out.x_hat_d, out.x_hat_g):
            if rec is not None:
                assert rec.shape == x.shape
        assert out.rate_y.item() > 0 and np.isfinite(out.rate_y.item())
        assert out.rate_z.item() > 0 and np.isfinite(out.rate_z.item())
        assert out.total_rate().item() == pytest.approx(
            out.rate_y.item() + out.rate_z.item(), rel=1e-6)
        assert set(out.latents) == {"y", "y_hat", "z", "z_hat", "mean", "raw_scale"}

    def test_single_reconstruction_rule(self):
        rng = np.random.default_rng(1)
        x, xt = frame_pair(rng, 32, 32)
        for kind in ("diff", "gdc"):
            coder = C.Coder.new(C.CoderConfig.desk(kind), seed=0)
            out = coder.forward(T.Tensor(x), T.Tensor(xt), "round")
            assert out.single() is not None
        xcoder = C.Coder.new(C.CoderConfig.desk("xgdc"), seed=0)
        xout = xcoder.forward(T.Tensor(x), T.Tensor(xt), "round")
        with pytest.raises(ContractError):
            xout.single()

    def test_round_mode_deterministic(self):
        coder = C.Coder.new(C.CoderConfig.desk("diff"), seed=2)
        x, xt = frame_pair(np.random.default_rng(2), 32, 32)
        a = coder.forward(T.Tensor(x), T.Tensor(xt), "round")
        b = coder.forward(T.Tensor(x), T.Tensor(xt), "round")
        assert np.array_equal(a.x_hat_d.data, b.x_hat_d.data)
        assert a.rate_y.item() == b.rate_y.item()

    def test_input_contracts(self):
        coder = C.Coder.new(C.CoderConfig.desk("diff"), seed=0)
        good = T.Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32))
        with pytest.raises(ShapeError):
            coder.forward(good, T.Tensor(np.zeros((1, 3, 32, 16), dtype=np.float32)), "round")
        bad_ch = T.Tensor(np.zeros((1, 1, 32, 32), dtype=np.float32))
        with pytest.raises(ShapeError):
            coder.forward(bad_ch, bad_ch, "round")
        odd = T.Tensor(np.zeros((1, 3, 30, 30), dtype=np.float32))
        with pytest.raises(ContractError):
            coder.forward(odd, odd, "round")
        with pytest.raises(ContractError):
            coder.forward(good, good, "noise")  # noise needs an rng


class TestEncodeDecode:
    @pytest.mark.parametrize("kind", C.KINDS)
    def test_round_trip_bit_exact(self, kind):
        coder = C.Coder.new(C.CoderConfig.desk(kind), seed=3)
        x, xt = frame_pair(np.random.default_rng(7), 32, 32)
        container, enc_out = coder.encode(x, xt)
        dec_out = coder.decode(xt, BitstreamContainer.from_bytes(container.to_bytes()))
        assert np.array_equal(enc_out.latents["y_hat"], dec_out.latents["y_hat"])
        assert np.array_equal(enc_out.latents["z_hat"], dec_out.latents["z_hat"])
        for a, b in ((enc_out.x_hat_d, dec_out.x_hat_d),
                     (enc_out.x_hat_g, dec_out.x_hat_g)):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("kind", ["diff", "xgdc"])
    @pytest.mark.parametrize("coder_dtype, frame_dtype", [(np.float32, np.float64),
                                                          (np.float64, np.float32)])
    def test_frames_enter_in_the_coder_dtype(self, kind, coder_dtype, frame_dtype):
        # frames of the other float width code and decode exactly like the
        # same frames given in the coder's own dtype
        coder = C.Coder.new(C.CoderConfig.desk(kind), seed=3, dtype=coder_dtype)
        x, xt = frame_pair(np.random.default_rng(15), 32, 32)
        ref, ref_out = coder.encode(x.astype(coder_dtype), xt.astype(coder_dtype))
        container, enc_out = coder.encode(x.astype(frame_dtype), xt.astype(frame_dtype))
        data = container.to_bytes()
        dec_out = coder.decode(xt.astype(frame_dtype), BitstreamContainer.from_bytes(data))
        assert data == ref.to_bytes()
        for attr in ("x_hat_d", "x_hat_g"):
            want = getattr(ref_out, attr)
            for out in (enc_out, dec_out):
                got = getattr(out, attr)
                assert (got is None) == (want is None)
                if want is not None:
                    assert got.dtype == coder_dtype
                    assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("kind", C.KINDS)
    def test_rate_consistency(self, kind):
        coder = C.Coder.new(C.CoderConfig.desk(kind), seed=4)
        x, xt = frame_pair(np.random.default_rng(8), 32, 32)
        container, _ = coder.encode(x, xt)
        for pl in (container.payload_z, container.payload_y):
            actual = 8 * len(pl.stream)
            assert actual <= pl.est_bits + 0.01 * pl.symbol_count + 64
            assert pl.symbol_count > 0

    @pytest.mark.parametrize("h, w", [(16, 0xFFFF), (0xFFFF, 16)])
    def test_header_size_limits(self, h, w):
        # each u16 size field at its maximum; 65535x65535 would be 51 GB
        coder = C.Coder.new(C.CoderConfig.desk("diff"), seed=5)
        x, xt = frame_pair(np.random.default_rng(16), h, w)
        container, enc_out = coder.encode(x, xt)
        parsed = BitstreamContainer.from_bytes(container.to_bytes())
        assert (parsed.height, parsed.width) == (h, w)
        dec_out = coder.decode(xt, parsed)
        assert dec_out.x_hat_d.shape == (1, 3, h, w)
        assert np.array_equal(enc_out.x_hat_d.data, dec_out.x_hat_d.data)

    def test_padding_path(self):
        coder = C.Coder.new(C.CoderConfig.desk("diff"), seed=5)
        x, xt = frame_pair(np.random.default_rng(9), 37, 53)
        container, enc_out = coder.encode(x, xt)
        assert (container.height, container.width) == (37, 53)
        dec_out = coder.decode(xt, BitstreamContainer.from_bytes(container.to_bytes()))
        assert dec_out.x_hat_d.shape == (1, 3, 37, 53)
        assert np.array_equal(enc_out.x_hat_d.data, dec_out.x_hat_d.data)

    def test_tiny_frame_edge_padding(self):
        coder = C.Coder.new(C.CoderConfig.desk("gdc"), seed=6)
        x, xt = frame_pair(np.random.default_rng(10), 8, 8)
        container, enc_out = coder.encode(x, xt)
        dec_out = coder.decode(xt, BitstreamContainer.from_bytes(container.to_bytes()))
        assert dec_out.x_hat_g.shape == (1, 3, 8, 8)
        assert np.array_equal(enc_out.x_hat_g.data, dec_out.x_hat_g.data)

    def test_decoder_conditions_on_prediction(self):
        # the synthesis reconstruction really uses the prediction frame:
        # decoding one bitstream against two predictions must differ
        coder = C.Coder.new(C.CoderConfig.desk("gdc"), seed=7)
        rng = np.random.default_rng(11)
        x, xt = frame_pair(rng, 32, 32)
        container, _ = coder.encode(x, xt)
        xt2 = np.clip(xt + rng.normal(scale=0.1, size=xt.shape), 0, 1).astype(np.float32)
        a = coder.decode(xt, container)
        b = coder.decode(xt2, container)
        assert not np.array_equal(a.x_hat_g.data, b.x_hat_g.data)

    def test_decode_contracts(self):
        coder = C.Coder.new(C.CoderConfig.desk("diff"), seed=8)
        x, xt = frame_pair(np.random.default_rng(12), 32, 32)
        container, _ = coder.encode(x, xt)
        other = C.Coder.new(C.CoderConfig.desk("gdc"), seed=8)
        with pytest.raises(ContractError):
            other.decode(xt, container)
        with pytest.raises(ShapeError):
            coder.decode(xt[:, :, :16, :], container)

    def test_empty_frame_rejected(self):
        coder = C.Coder.new(C.CoderConfig.desk("diff"), seed=0)
        empty = np.zeros((1, 3, 0, 0), dtype=np.float32)
        with pytest.raises(ShapeError):
            coder.encode(empty, empty)

    def test_batch_refused_before_any_net(self, monkeypatch):
        # the coder codes one frame: a batch of two is a ShapeError before
        # the forward pass, and a two-frame or one-channel prediction one
        # before decoding
        coder = C.Coder.new(C.CoderConfig.desk("diff"), seed=8)
        x, xt = frame_pair(np.random.default_rng(12), 32, 32)
        container, _ = coder.encode(x, xt)
        calls = []
        forward, decode_context = coder.forward, C.E.decode_context
        monkeypatch.setattr(coder, "forward",
                            lambda *a, **k: calls.append("forward") or forward(*a, **k))
        monkeypatch.setattr(C.E, "decode_context",
                            lambda *a, **k: calls.append("decode_context")
                            or decode_context(*a, **k))
        pair = np.concatenate([x, x]), np.concatenate([xt, xt])
        with pytest.raises(ShapeError, match="one frame"):
            coder.encode(*pair)
        with pytest.raises(ShapeError, match="one frame"):
            coder.decode(pair[1], container)
        with pytest.raises(ShapeError, match="one frame"):
            coder.decode(xt[:, :1], container)
        with pytest.raises(ShapeError, match="one frame"):
            coder.encode(x[0], xt[0])
        assert calls == []
        coder.decode(xt, container)
        assert calls == ["decode_context"]

    def test_qt_lambda_needs_two_reconstructions(self):
        coder = C.Coder.new(C.CoderConfig.desk("diff"), seed=9)
        x, xt = frame_pair(np.random.default_rng(13), 32, 32)
        with pytest.raises(ContractError):
            coder.encode(x, xt, qt_lambda=100.0)

    def test_from_arrays_reproduces_streams(self):
        cfg = C.CoderConfig.desk("diff")
        coder = C.Coder.new(cfg, seed=10)
        x, xt = frame_pair(np.random.default_rng(14), 32, 32)
        c1, _ = coder.encode(x, xt)
        clone = C.Coder.from_arrays(cfg, {n: a.copy() for n, a in coder.params.arrays().items()})
        c2, _ = clone.encode(x, xt)
        assert c1.to_bytes() == c2.to_bytes()

    def test_missing_parameters_rejected(self):
        from gdclab.layers import ParamStore
        with pytest.raises(ContractError):
            C.Coder(C.CoderConfig.desk("diff"), ParamStore())

    def test_parameters_checked_against_specs(self):
        cfg = C.CoderConfig.desk("diff")
        assert cfg.kernel == 5
        arrays = C.Coder.new(cfg, seed=0).params.arrays()
        extra = {**arrays, "gd.0.w": np.zeros((16, 6, 5, 5))}
        narrow = {**arrays, "enc.0.w": arrays["enc.0.w"][:, :, 1:4, 1:4]}
        for bad, error in ((extra, ContractError), (narrow, ShapeError)):
            store = L.ParamStore()
            for name, a in bad.items():
                store.add(name, a)
            with pytest.raises(error):
                C.Coder(cfg, store)
            with pytest.raises(error):
                C.Coder.from_arrays(cfg, bad)

    def test_from_arrays_draws_no_init(self, monkeypatch):
        # a loaded store is built from the arrays in spec order, whatever
        # order they come in, and owns copies of them
        cfg = C.CoderConfig.desk("xgdc")
        source = C.Coder.new(cfg, seed=4).params.arrays()

        def no_draw(*args):
            raise RuntimeError("random init drawn")

        monkeypatch.setattr(L, "_init_weight", no_draw)
        clone = C.Coder.from_arrays(cfg, dict(reversed(source.items())))
        loaded = clone.params.arrays()
        assert list(loaded) == list(source)
        for name, a in loaded.items():
            assert a.dtype == np.float32
            assert np.array_equal(a, source[name]) and not np.shares_memory(a, source[name])

    @pytest.mark.parametrize("kind", C.KINDS)
    def test_non_finite_reconstruction_rejected(self, kind):
        # an escape can carry any value; 2^20 in every 7th y_hat overflows
        # the synthesis transform, and decode says so instead of returning
        # non-finite pixels
        rng = np.random.default_rng(0)
        x = rng.uniform(0.1, 0.9, size=(1, 3, 64, 64)).astype(np.float32)
        xt = np.clip(x + rng.normal(scale=0.05, size=x.shape), 0, 1).astype(np.float32)
        coder = C.Coder.new(C.CoderConfig.desk(kind), seed=1)
        container, out = coder.encode(x, xt)
        lat = out.latents
        y_hat = lat["y_hat"].copy()
        y_hat.reshape(-1)[::7] = 2.0 ** 20
        stream, (lo, hi) = E.encode_gaussian(y_hat, lat["mean"], lat["raw_scale"])
        payload = dataclasses.replace(container.payload_y, stream=stream, lo=lo, hi=hi)
        hostile = dataclasses.replace(container, payload_y=payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StreamError):
                coder.decode(xt, BitstreamContainer.from_bytes(hostile.to_bytes()))


class TestQuadTreeSideInfo:
    def test_round_trip_with_merged(self):
        coder = C.Coder.new(C.CoderConfig.desk("xgdc"), seed=9)
        x, xt = frame_pair(np.random.default_rng(15), 48, 48)
        container, enc_out = coder.encode(x, xt, qt_lambda=200.0,
                                          min_block=4, max_block=16)
        assert container.qt_bits is not None
        assert (container.qt_min_block, container.qt_max_block) == (4, 16)
        assert len(container.qt_bits) == enc_out.qt_result.side_bits
        dec_out = coder.decode(xt, BitstreamContainer.from_bytes(container.to_bytes()))
        assert dec_out.x_hat_merged is not None
        assert np.array_equal(enc_out.x_hat_merged.data, dec_out.x_hat_merged.data)

    def test_trailing_side_bit_rejected(self):
        coder = C.Coder.new(C.CoderConfig.desk("xgdc"), seed=9)
        x, xt = frame_pair(np.random.default_rng(15), 32, 32)
        container, _ = coder.encode(x, xt, qt_lambda=200.0, min_block=4, max_block=16)
        container.qt_bits = container.qt_bits + [0]
        with pytest.raises(ContractError):
            coder.decode(xt, BitstreamContainer.from_bytes(container.to_bytes()))

    def test_hostile_block_refused_in_bounded_memory(self):
        # a 1 MB block claims 2^23 side bits for a 32x32 tree of a few:
        # decode refuses it without expanding the bits to a Python list
        coder = C.Coder.new(C.CoderConfig.desk("xgdc"), seed=9)
        x, xt = frame_pair(np.random.default_rng(15), 32, 32)
        container, _ = coder.encode(x, xt, qt_lambda=200.0, min_block=4, max_block=16)
        block = 1 << 20
        data = dataclasses.replace(container, qt_bits=np.zeros(8 * block, np.uint8)).to_bytes()
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(ContractError, match="tree used"):
                coder.decode(xt, BitstreamContainer.from_bytes(data))
            seconds = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seconds < 1.0
        assert peak <= 16 * block

    @pytest.mark.parametrize("kind", ["diff", "gdc", "codecnet"])
    def test_side_bits_need_two_reconstructions(self, kind, monkeypatch):
        # bits that fit the 32x32 tree still name a reconstruction these
        # kinds lack, so decode refuses them before any entropy decoding
        coder = C.Coder.new(C.CoderConfig.desk(kind), seed=4)
        x, xt = frame_pair(np.random.default_rng(15), 32, 32)
        container, _ = coder.encode(x, xt)
        hostile = dataclasses.replace(container, qt_bits=[0, 0] * 16,
                                      qt_min_block=4, qt_max_block=8)

        def decode_context(*args, **kwargs):
            raise RuntimeError("entropy decoding ran")

        monkeypatch.setattr(C.E, "decode_context", decode_context)
        with pytest.raises(ContractError, match="two-reconstruction"):
            coder.decode(xt, BitstreamContainer.from_bytes(hostile.to_bytes()))

    def test_bad_search_rejected_before_forward(self, monkeypatch):
        coder = C.Coder.new(C.CoderConfig.desk("xgdc"), seed=9)

        def forward(*args, **kwargs):
            raise RuntimeError("forward ran")

        monkeypatch.setattr(coder, "forward", forward)
        x, xt = frame_pair(np.random.default_rng(15), 40, 32)
        with pytest.raises(RuntimeError):
            coder.encode(x, xt, qt_lambda=100.0)
        bad = [{"qt_lambda": lam} for lam in (float("nan"), float("inf"), -1.0)]
        bad += [{"qt_lambda": 100.0, "min_block": 3},
                {"qt_lambda": 100.0, "min_block": 16, "max_block": 8},
                {"qt_lambda": 100.0, "max_block": 512},
                # pads to 48x32, whose root tile is 16
                {"qt_lambda": 100.0, "min_block": 32, "max_block": 64}]
        for kwargs in bad:
            with pytest.raises(ContractError):
                coder.encode(x, xt, **kwargs)

    def test_no_side_info_without_lambda(self):
        coder = C.Coder.new(C.CoderConfig.desk("xgdc"), seed=10)
        x, xt = frame_pair(np.random.default_rng(16), 32, 32)
        container, out = coder.encode(x, xt)
        assert container.qt_bits is None
        assert out.x_hat_merged is None
        dec_out = coder.decode(xt, container)
        assert dec_out.x_hat_merged is None


class TestGdcFromDiff:
    def test_bit_for_bit_match(self):
        diff = C.Coder.new(C.CoderConfig.desk("diff"), seed=11)
        gdc = C.gdc_from_diff(diff)
        assert gdc.cfg.kind == "gdc"
        assert gdc.cfg.features == 3
        rng = np.random.default_rng(17)
        for trial in range(3):
            x, xt = frame_pair(rng, 32, 32)
            cd, od = diff.encode(x, xt)
            cg, og = gdc.encode(x, xt)
            assert cd.payload_z.stream == cg.payload_z.stream
            assert cd.payload_y.stream == cg.payload_y.stream
            assert np.array_equal(od.x_hat_d.data, og.x_hat_g.data)
            fd = diff.forward(T.Tensor(x), T.Tensor(xt), "noise",
                              np.random.default_rng(trial))
            fg = gdc.forward(T.Tensor(x), T.Tensor(xt), "noise",
                             np.random.default_rng(trial))
            assert np.array_equal(fd.x_hat_d.data, fg.x_hat_g.data)
            assert fd.rate_y.item() == fg.rate_y.item()
            assert fd.rate_z.item() == fg.rate_z.item()

    @pytest.mark.parametrize("channels", [1, 2, 3, 4, 5])
    def test_any_channel_count(self, channels):
        diff = C.Coder.new(C.CoderConfig.desk("diff", channels=channels), seed=channels)
        gdc = C.gdc_from_diff(diff)
        rng = np.random.default_rng(20 + channels)
        x = rng.uniform(0.1, 0.9, size=(1, channels, 32, 48)).astype(np.float32)
        xt = np.clip(x + rng.normal(scale=0.05, size=x.shape), 0, 1).astype(np.float32)
        cd, od = diff.encode(x, xt)
        cg, og = gdc.encode(x, xt)
        assert cd.payload_z.stream == cg.payload_z.stream
        assert cd.payload_y.stream == cg.payload_y.stream
        assert np.array_equal(od.x_hat_d.data, og.x_hat_g.data)

    def test_source_must_be_diff(self):
        gdc = C.Coder.new(C.CoderConfig.desk("gdc"), seed=0)
        with pytest.raises(ContractError):
            C.gdc_from_diff(gdc)


class TestWholeGraphGradients:
    def test_diff_graph_gradients(self):
        # gradients of a rate-distortion style loss w.r.t. both input
        # frames, through quantization, entropy models and reconstruction
        cfg = C.CoderConfig("diff", core_width=8, latent=8, hyper_latent=4, pred_width=8,
                            ctx_width=4, enc_strides=(2, 2))
        coder = C.Coder.new(cfg, seed=12, dtype=np.float64)
        rng = np.random.default_rng(18)
        x = T.Tensor(rng.uniform(0.2, 0.8, size=(1, 3, 4, 4)), requires_grad=True)
        xt = T.Tensor(rng.uniform(0.2, 0.8, size=(1, 3, 4, 4)), requires_grad=True)

        def f(xi, xti):
            out = coder.forward(xi, xti, mode="noise",
                                rng=np.random.default_rng(99))
            err = T.sub(out.x_hat_d, xi)
            return T.add(T.mean_all(T.mul(err, err)),
                         T.scale(out.total_rate(), 1e-4))

        assert T.grad_check(f, [x, xt]) < 1e-4
