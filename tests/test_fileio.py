"""Binary format round trips and rejection of malformed inputs."""

import dataclasses
import math
import struct

import numpy as np
import pytest

from gdclab import fileio as F
from gdclab import training as TR
from gdclab.errors import ContractError, FormatError, ShapeError, StreamError
from gdclab.tensor import Tensor


class TestCheckpoint:
    def test_round_trip_mixed_dtypes(self):
        rng = np.random.default_rng(0)
        arrays = {
            "enc.0.w": rng.normal(size=(4, 3, 5, 5)).astype(np.float32),
            "enc.0.b": np.zeros((1, 4, 1, 1), dtype=np.float32),
            "stats": rng.normal(size=(1, 2, 3, 4)),  # float64
        }
        back = F.parse_checkpoint(F.checkpoint_bytes(arrays))
        assert list(back) == list(arrays)
        for name, arr in arrays.items():
            assert back[name].dtype == arr.dtype
            assert np.array_equal(back[name], arr)

    def test_empty_checkpoint(self):
        assert F.parse_checkpoint(F.checkpoint_bytes({})) == {}

    def test_file_round_trip(self, tmp_path):
        arrays = {"w": np.ones((1, 1, 2, 2), dtype=np.float32)}
        path = tmp_path / "model.ckpt"
        F.save_checkpoint(path, arrays)
        back = F.load_checkpoint(path)
        assert np.array_equal(back["w"], arrays["w"])

    def test_entry_contracts(self):
        with pytest.raises(ContractError):
            F.checkpoint_bytes({"w": np.zeros((1, 1, 1, 1), dtype=np.int32)})
        with pytest.raises(ShapeError):
            F.checkpoint_bytes({"w": np.zeros((2, 2), dtype=np.float32)})

    def test_bad_magic(self):
        blob = F.checkpoint_bytes({"w": np.zeros((1, 1, 1, 1), dtype=np.float32)})
        with pytest.raises(FormatError):
            F.parse_checkpoint(b"XXXX" + blob[4:])

    def test_bad_version(self):
        with pytest.raises(FormatError):
            F.parse_checkpoint(F.CHECKPOINT_MAGIC + struct.pack("<II", 99, 0))

    def test_unknown_dtype_tag(self):
        blob = bytearray(F.CHECKPOINT_MAGIC + struct.pack("<II", 1, 1))
        blob += struct.pack("<H", 1) + b"w"
        blob += struct.pack("<BB", 9, 4) + struct.pack("<4I", 1, 1, 1, 1) + b"\x00" * 4
        with pytest.raises(FormatError):
            F.parse_checkpoint(bytes(blob))

    def test_entry_name_not_utf8(self):
        blob = bytearray(F.CHECKPOINT_MAGIC + struct.pack("<II", 1, 1))
        blob += struct.pack("<H", 1) + b"\xff"
        blob += struct.pack("<BB", 0, 4) + struct.pack("<4I", 1, 1, 1, 1) + b"\x00" * 4
        with pytest.raises(FormatError):
            F.parse_checkpoint(bytes(blob))

    def test_bad_rank_tag(self):
        blob = bytearray(F.CHECKPOINT_MAGIC + struct.pack("<II", 1, 1))
        blob += struct.pack("<H", 1) + b"w"
        blob += struct.pack("<BB", 0, 3) + struct.pack("<4I", 1, 1, 1, 1) + b"\x00" * 4
        with pytest.raises(FormatError):
            F.parse_checkpoint(bytes(blob))

    def test_truncation_and_trailing(self):
        blob = F.checkpoint_bytes({"w": np.zeros((1, 1, 2, 2), dtype=np.float32)})
        with pytest.raises(StreamError):
            F.parse_checkpoint(blob[:-3])
        with pytest.raises(StreamError):
            F.parse_checkpoint(blob + b"\x00")
        # 65536**4 elements overflow a 64-bit product; the size must not wrap
        huge = bytearray(F.CHECKPOINT_MAGIC + struct.pack("<II", 1, 1))
        huge += struct.pack("<H", 1) + b"w"
        huge += struct.pack("<BB", 0, 4) + struct.pack("<4I", *(65536,) * 4)
        with pytest.raises(StreamError):
            F.parse_checkpoint(bytes(huge))

    def test_duplicate_entry_rejected(self):
        # two one-entry checkpoints spliced under a header that counts two
        one = F.checkpoint_bytes({"w": np.zeros((1, 1, 1, 1), dtype=np.float32)})
        other = F.checkpoint_bytes({"w": np.ones((1, 1, 1, 1), dtype=np.float32)})
        head = len(F.CHECKPOINT_MAGIC) + 8
        spliced = F.CHECKPOINT_MAGIC + struct.pack("<II", F.CHECKPOINT_VERSION, 2) + one[head:] + other[head:]
        with pytest.raises(FormatError, match="'w'"):
            F.parse_checkpoint(spliced)


class TestBits:
    def test_round_trip(self):
        bits = [1, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0]
        assert F.unpack_bits(F.pack_bits(bits), len(bits)).tolist() == bits
        assert F.unpack_bits(F.pack_bits([]), 0).tolist() == []

    def test_msb_first(self):
        assert F.pack_bits([1, 0, 0, 0, 0, 0, 0, 0]) == b"\x80"
        assert F.pack_bits([1]) == b"\x80"

    def test_wrong_byte_count(self):
        with pytest.raises(StreamError):
            F.unpack_bits(b"\x00\x00", 3)


class TestPayload:
    def test_round_trip(self):
        p = F.Payload(stream=b"\x01\x02\x03", lo=-3, hi=9)
        back = F.Payload.from_bytes(p.to_bytes())
        assert (back.lo, back.hi, back.stream) == (-3, 9, b"\x01\x02\x03")

    def test_support_range_contract(self):
        with pytest.raises(ContractError):
            F.Payload(stream=b"", lo=-40000, hi=0).to_bytes()
        with pytest.raises(ContractError):
            F.Payload(stream=b"", lo=0, hi=70000).to_bytes()

    def test_short_header(self):
        with pytest.raises(StreamError):
            F.Payload.from_bytes(b"\x00\x01")


def _container(**kw):
    base = dict(kind="diff", width=64, height=48,
                payload_z=F.Payload(stream=b"\x07\x08", lo=-2, hi=2),
                payload_y=F.Payload(stream=b"\xff" * 5, lo=0, hi=1))
    base.update(kw)
    return F.BitstreamContainer(**base)


class TestContainer:
    def test_round_trip_plain(self):
        c = _container()
        back = F.BitstreamContainer.from_bytes(c.to_bytes())
        assert (back.kind, back.width, back.height) == ("diff", 64, 48)
        assert back.payload_z.stream == c.payload_z.stream
        assert (back.payload_z.lo, back.payload_z.hi) == (-2, 2)
        assert back.qt_bits is None
        assert back.to_bytes() == c.to_bytes()

    def test_round_trip_with_quadtree(self):
        c = _container(kind="xgdc", qt_bits=[1, 0, 0, 1, 1, 0, 1, 1, 0],
                       qt_min_block=4, qt_max_block=64)
        back = F.BitstreamContainer.from_bytes(c.to_bytes())
        assert back.qt_bits.tolist() == c.qt_bits
        assert (back.qt_min_block, back.qt_max_block) == (4, 64)
        assert back.to_bytes() == c.to_bytes()

    def test_total_bits(self):
        c = _container()
        assert c.total_bits() == 8 * len(c.to_bytes())

    def test_kind_and_size_contracts(self):
        with pytest.raises(ContractError):
            _container(kind="mystery").to_bytes()
        with pytest.raises(ContractError):
            _container(width=0).to_bytes()
        with pytest.raises(ContractError):
            _container(height=100000).to_bytes()

    def test_quadtree_bound_contracts(self):
        with pytest.raises(ContractError):
            _container(qt_bits=[1], qt_min_block=0, qt_max_block=8).to_bytes()
        with pytest.raises(ContractError):
            _container(qt_bits=[1], qt_min_block=16, qt_max_block=8).to_bytes()
        # the bit count is a u32: 70,000 side bits round-trip
        c = _container(qt_bits=[0, 1] * 35000, qt_min_block=4, qt_max_block=8)
        assert F.BitstreamContainer.from_bytes(c.to_bytes()).qt_bits.tolist() == c.qt_bits

    def test_version_one_rejected(self):
        # version 1 coded values, not offsets from their rounded means,
        # version 2 took its entropy parameters off the exact grid and coded
        # the hyper-latent in raster order, and version 3 range coded its
        # payloads: they would decode wrong, so their headers are refused
        data = _container().to_bytes()
        assert data[4:8] == struct.pack("<I", F.CONTAINER_VERSION) == struct.pack("<I", 4)
        for old in (1, 2, 3):
            with pytest.raises(FormatError):
                F.BitstreamContainer.from_bytes(data[:4] + struct.pack("<I", old) + data[8:])

    def test_malformed_streams(self):
        data = _container().to_bytes()
        with pytest.raises(FormatError):
            F.BitstreamContainer.from_bytes(b"ZZZZ" + data[4:])
        with pytest.raises(StreamError):
            F.BitstreamContainer.from_bytes(data + b"\x00")
        with pytest.raises(StreamError):
            F.BitstreamContainer.from_bytes(data[:-2])
        bad_kind = bytearray(data)
        bad_kind[8] = 9
        with pytest.raises(FormatError):
            F.BitstreamContainer.from_bytes(bytes(bad_kind))
        bad_flags = bytearray(data)
        bad_flags[14] |= 0x02
        with pytest.raises(FormatError):
            F.BitstreamContainer.from_bytes(bytes(bad_flags))

    def test_reserved_byte_is_fixed(self):
        # offset 9, after the kind tag, is written as 0xff and read back only
        # as 0xff
        data = _container().to_bytes()
        assert data[9] == F.RESERVED_BYTE == 0xFF
        for value in (0, 2, 0xFE):
            patched = bytearray(data)
            patched[9] = value
            with pytest.raises(FormatError):
                F.BitstreamContainer.from_bytes(bytes(patched))

    def test_empty_frame_size_rejected(self):
        # offsets 10 and 12 hold the u16 width and height, as in to_bytes
        data = _container().to_bytes()
        for offset in (10, 12):
            patched = bytearray(data)
            patched[offset:offset + 2] = b"\x00\x00"
            with pytest.raises(FormatError):
                F.BitstreamContainer.from_bytes(bytes(patched))

    def test_file_round_trip(self, tmp_path):
        c = _container()
        path = tmp_path / "frame.gdc"
        F.save_container(path, c)
        assert F.load_container(path).to_bytes() == c.to_bytes()


class TestPixmap:
    def test_round_trip(self):
        px = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        back = F.parse_ppm(F.ppm_bytes(px))
        assert back.shape == (2, 3, 3)
        assert np.array_equal(back, px)

    def test_header_comments_and_whitespace(self):
        px = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        data = b"P6 # comment\n3\t2 # another\n255\n" + px.tobytes()
        assert np.array_equal(F.parse_ppm(data), px)

    def test_format_contracts(self):
        px = np.zeros((2, 2, 3), dtype=np.uint8)
        with pytest.raises(FormatError):
            F.parse_ppm(b"P5\n2 2\n255\n" + px.tobytes())
        with pytest.raises(FormatError):
            F.parse_ppm(b"P6\n2 2\n65535\n" + px.tobytes())
        with pytest.raises(StreamError):
            F.parse_ppm(b"P6\n2 2\n255\n" + px.tobytes()[:-1])
        with pytest.raises(StreamError):
            F.parse_ppm(b"P6\n2 2\n255\n" + px.tobytes() + b"garbage")
        with pytest.raises(FormatError):
            F.parse_ppm(b"P6\n2")
        with pytest.raises(FormatError):
            F.parse_ppm(b"P6\nabc 2\n255\n")
        with pytest.raises(FormatError):
            F.parse_ppm(b"P6\n-2 2\n255\n" + px.tobytes())
        for header in (b"P6\n0 0\n255\n", b"P6\n0 2\n255\n", b"P6\n2 0\n255\n"):
            with pytest.raises(FormatError):
                F.parse_ppm(header)
        with pytest.raises(ShapeError):
            F.ppm_bytes(np.zeros((2, 2, 4), dtype=np.uint8))


class TestPixelTensor:
    def test_scaling_and_layout(self):
        px = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        t = F.pixels_to_tensor(px)
        assert t.shape == (1, 3, 2, 3)
        assert t.data.dtype == np.float32
        assert t.data[0, 0, 0, 1] == pytest.approx(3 / 255, abs=1e-7)

    def test_byte_exact_round_trip(self):
        px = (np.arange(16 * 16 * 3) % 256).astype(np.uint8).reshape(16, 16, 3)
        assert np.array_equal(F.tensor_to_pixels(F.pixels_to_tensor(px)), px)

    def test_clipping_and_rounding(self):
        data = np.zeros((1, 3, 1, 2), dtype=np.float32)
        data[0, 0, 0, 0] = -0.3
        data[0, 1, 0, 0] = 1.7
        data[0, 2, 0, 0] = 127.5 / 255.0
        out = F.tensor_to_pixels(Tensor(data))
        assert out[0, 0, 0] == 0
        assert out[0, 0, 1] == 255
        assert out[0, 0, 2] == 128

    def test_shape_contract(self):
        with pytest.raises(ShapeError):
            F.tensor_to_pixels(np.zeros((2, 3, 4, 4)))

    def test_image_file_round_trip(self, tmp_path):
        px = np.arange(4 * 5 * 3, dtype=np.uint8).reshape(4, 5, 3)
        path = tmp_path / "img.ppm"
        F.write_image(path, F.pixels_to_tensor(px))
        t = F.load_image(path)
        assert np.array_equal(F.tensor_to_pixels(t), px)
        with pytest.raises(FormatError):
            F.load_image(tmp_path / "img.bmp")
        with pytest.raises(FormatError):
            F.write_image(tmp_path / "img.bmp", F.pixels_to_tensor(px))


class TestExperimentConfig:
    def test_parse_with_comments(self):
        cfg = F.ExperimentConfig.from_text(
            "# run settings\ncoder = xgdc\nsteps = 50\nlmbda = 512\nstrides = 2,2\n")
        assert cfg.coder == "xgdc"
        assert cfg.steps == 50
        assert cfg.lmbda == 512.0
        assert cfg.stride_tuple() == (2, 2)

    def test_defaults(self):
        cfg = F.ExperimentConfig.from_text("")
        assert cfg == F.ExperimentConfig()
        assert cfg.stride_tuple() == (2, 2, 2, 2)

    def test_hyphen_keys_normalized(self):
        cfg = F.ExperimentConfig.from_text("core-width = 8\n")
        assert cfg.core_width == 8

    def test_text_round_trip(self, tmp_path):
        cfg = F.ExperimentConfig(coder="gdc", latent=24, lmbda=256.0, strides="2,2")
        assert F.ExperimentConfig.from_text(cfg.to_text()) == cfg
        path = tmp_path / "run.cfg"
        cfg.save(path)
        assert F.ExperimentConfig.from_file(path) == cfg

    def test_parse_errors(self):
        with pytest.raises(FormatError):
            F.ExperimentConfig.from_text("bogus = 1\n")
        with pytest.raises(FormatError):
            F.ExperimentConfig.from_text("steps fifty\n")
        with pytest.raises(FormatError):
            F.ExperimentConfig.from_text("steps = fifty\n")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(FormatError, match="lines 1 and 3 .*'lmbda'"):
            F.ExperimentConfig.from_text("lmbda = 100\ncoder = gdc\nlmbda = 2000\n")
        # the hyphen and underscore spellings name one key
        with pytest.raises(FormatError, match="lines 1 and 2 .*'core_width'"):
            F.ExperimentConfig.from_text("core-width = 8\ncore_width = 16\n")

    def test_validation(self):
        with pytest.raises(ContractError):
            F.ExperimentConfig(coder="h264")
        with pytest.raises(ContractError):
            F.ExperimentConfig(lmbda=0.0)
        with pytest.raises(ContractError):
            F.ExperimentConfig(kernel=4)
        with pytest.raises(ContractError):
            F.ExperimentConfig(strides="2,x")
        with pytest.raises(ContractError):
            F.ExperimentConfig(channels=0)

    @pytest.mark.parametrize("key, value", [
        ("lr", 0.0), ("lr", -1.0), ("lmbda", math.nan), ("lmbda", math.inf),
        ("features", -1), ("seed", -1), ("strides", ""), ("strides", "0,2"),
        ("patch", 0), ("pairs", 0)])
    def test_every_field_checked(self, key, value):
        # the coder and training fields meet the rules of the configs they
        # describe, whether set by keyword or read from text
        with pytest.raises(ContractError):
            F.ExperimentConfig(**{key: value})
        with pytest.raises(ContractError):
            F.ExperimentConfig.from_text(f"{key} = {value}\n")

    def test_describes_coder_and_train_configs(self):
        cfg = F.ExperimentConfig(coder="gdc", latent=24, lmbda=256.0, strides="2,2",
                                 seed=3, patch=16)
        assert cfg.coder_config() == F.CoderConfig("gdc", latent=24, enc_strides=(2, 2))
        assert cfg.train_config() == TR.TrainConfig(lmbda=256.0, seed=3, patch=16)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.lmbda = 1.0
