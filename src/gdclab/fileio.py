"""Binary formats (checkpoints, bitstream containers), image I/O and the
config types: the coder config, and the plain-text experiment config that
describes one coder config and one training config.

Everything is little-endian and self-delimiting: total lengths are
derivable from headers alone, and parsers reject bad magics, truncation
and trailing garbage rather than guessing.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .entropy import round_away
from .errors import ContractError, FormatError, ShapeError, StreamError
from .tensor import Tensor
from .training import TrainConfig

CHECKPOINT_MAGIC = b"GDCK"
CONTAINER_MAGIC = b"GDCB"
CHECKPOINT_VERSION = 1
# 4: both payloads are lane-interleaved rANS, not range coded; since 3 the
# hyper decoder and the context net run on the exact grid, and the
# hyper-latent is coded by wavefront (see BitstreamContainer).
CONTAINER_VERSION = 4
# The container header byte after the coder kind tag, unused: written as
# this value and rejected as any other.
RESERVED_BYTE = 0xFF

CODER_KINDS = ("diff", "codecnet", "gdc", "xgdc")

_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.data):
            raise StreamError(f"truncated: wanted {n} bytes at offset {self.pos}, "
                              f"have {len(self.data) - self.pos}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def done(self):
        if self.pos != len(self.data):
            raise StreamError(f"{len(self.data) - self.pos} trailing bytes after payload")


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def checkpoint_bytes(arrays):
    """Serialize an ordered name -> array mapping. Arrays must be rank-4
    float32/float64; values are stored raw little-endian."""
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<II", CHECKPOINT_VERSION, len(arrays))
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.dtype not in _DTYPE_TAGS:
            raise ContractError(f"checkpoint entry {name!r}: unsupported dtype {arr.dtype}")
        if arr.ndim != 4:
            raise ShapeError(f"checkpoint entry {name!r}: rank {arr.ndim} != 4")
        nb = name.encode("utf-8")
        out += struct.pack("<H", len(nb)) + nb
        out += struct.pack("<BB", _DTYPE_TAGS[arr.dtype], arr.ndim)
        out += struct.pack("<4I", *arr.shape)
        out += np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes()
    return bytes(out)


def parse_checkpoint(data):
    r = _Reader(data)
    if r.take(4) != CHECKPOINT_MAGIC:
        raise FormatError("not a checkpoint (bad magic)")
    version, count = r.unpack("II")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    arrays = {}
    for _ in range(count):
        (nlen,) = r.unpack("H")
        raw_name = r.take(nlen)
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"entry name {raw_name!r} is not UTF-8") from None
        if name in arrays:
            raise FormatError(f"entry {name!r} appears twice")
        tag, rank = r.unpack("BB")
        if tag not in _TAG_DTYPES:
            raise FormatError(f"entry {name!r}: unknown dtype tag {tag}")
        if rank != 4:
            raise FormatError(f"entry {name!r}: rank {rank} != 4")
        dims = r.unpack("4I")
        dtype = _TAG_DTYPES[tag]
        n_bytes = math.prod(dims) * dtype.itemsize
        raw = r.take(n_bytes)
        arrays[name] = np.frombuffer(raw, dtype=dtype.newbyteorder("<")).astype(dtype).reshape(dims)
    r.done()
    return arrays


def save_checkpoint(path, arrays):
    with open(path, "wb") as f:
        f.write(checkpoint_bytes(arrays))


def load_checkpoint(path):
    with open(path, "rb") as f:
        return parse_checkpoint(f.read())


# ---------------------------------------------------------------------------
# bitstream container
# ---------------------------------------------------------------------------

def pack_bits(bits):
    """Pack a sequence of 0/1 into bytes, MSB first."""
    return np.packbits(np.asarray(bits, dtype=bool)).tobytes()


def unpack_bits(data, count):
    """The ``count`` bits of ``data``, MSB first, as a uint8 array: one byte
    a bit, not a list, since a hostile block can claim 2^32 of them."""
    if len(data) != (count + 7) // 8:
        raise StreamError(f"bit block: {len(data)} bytes cannot hold {count} bits exactly")
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count)


@dataclass
class Payload:
    """One coded tensor: support bounds plus its rANS payload (see
    ``rans``), whose lane count follows from ``symbol_count``."""
    stream: bytes
    lo: int
    hi: int
    symbol_count: int = 0
    est_bits: float = 0.0

    def to_bytes(self):
        if not -32768 <= self.lo <= 32767 or not -32768 <= self.hi <= 32767:
            raise ContractError(f"support [{self.lo}, {self.hi}] exceeds i16")
        return struct.pack("<hh", self.lo, self.hi) + self.stream

    @classmethod
    def from_bytes(cls, data):
        if len(data) < 4:
            raise StreamError("payload shorter than its support header")
        lo, hi = struct.unpack("<hh", data[:4])
        return cls(stream=data[4:], lo=lo, hi=hi)


@dataclass
class BitstreamContainer:
    """The single-file coded representation of one frame.

    Version 4 layout, little-endian: magic ``GDCB``, u32 version, then
    u8 kind tag, u8 reserved (0xff), u16 width, u16 height and u8 flags
    (bit 0: quad-tree side bits follow); the z payload and then the y
    payload, each a u32 length, i16 lo and hi of its offset support and the
    rANS bytes (``rans``: the lane states, the renormalisation words and the
    escape tail; the lane count is a function of the symbol count, which
    the frame size gives); with flag bit 0, u16 min and max block, a u32
    bit count and the bits packed MSB first.

    The payloads decode only under the entropy parameters the encoder used,
    and they are exact: the hyper decoder (y's means and raw scales) and
    the context net (z's) run on the power-of-two grid of
    ``layers.Network.grid`` over z_hat clamped to +-``entropy.Z_CLAMP``, so
    a container decodes alike under every BLAS kernel.  z is coded by
    wavefront of its context net's causal reach (``entropy.decode_context``)
    and y in C order; each value is its offset from its rounded mean under
    the table row its raw scale falls in.  Version 3 held the same values
    range coded; it and every other version are refused.
    """
    kind: str
    width: int
    height: int
    payload_z: Payload
    payload_y: Payload
    qt_bits: object = None   # 0/1 sequence; a uint8 array once parsed
    qt_min_block: int = 0
    qt_max_block: int = 0

    def total_bits(self):
        return 8 * len(self.to_bytes())

    def to_bytes(self):
        if self.kind not in CODER_KINDS:
            raise ContractError(f"unknown coder kind {self.kind!r}")
        if not (0 < self.width <= 0xFFFF and 0 < self.height <= 0xFFFF):
            raise ContractError(f"frame size {self.width}x{self.height} out of range")
        flags = 1 if self.qt_bits is not None else 0
        zb = self.payload_z.to_bytes()
        yb = self.payload_y.to_bytes()
        out = bytearray()
        out += CONTAINER_MAGIC
        out += struct.pack("<I", CONTAINER_VERSION)
        out += struct.pack("<BBHHB", CODER_KINDS.index(self.kind), RESERVED_BYTE,
                           self.width, self.height, flags)
        out += struct.pack("<I", len(zb)) + zb
        out += struct.pack("<I", len(yb)) + yb
        if self.qt_bits is not None:
            if not (0 < self.qt_min_block <= self.qt_max_block <= 0xFFFF):
                raise ContractError(f"bad quad-tree block bounds "
                                    f"[{self.qt_min_block}, {self.qt_max_block}]")
            out += struct.pack("<HH", self.qt_min_block, self.qt_max_block)
            out += struct.pack("<I", len(self.qt_bits)) + pack_bits(self.qt_bits)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data):
        r = _Reader(data)
        if r.take(4) != CONTAINER_MAGIC:
            raise FormatError("not a bitstream container (bad magic)")
        (version,) = r.unpack("I")
        if version != CONTAINER_VERSION:
            raise FormatError(f"unsupported container version {version}")
        kind_idx, reserved, width, height, flags = r.unpack("BBHHB")
        if kind_idx >= len(CODER_KINDS):
            raise FormatError(f"unknown coder kind tag {kind_idx}")
        if reserved != RESERVED_BYTE:
            raise FormatError(f"reserved header byte 0x{reserved:02x} is not 0xff")
        if width == 0 or height == 0:
            raise FormatError(f"empty frame size {width}x{height}")
        if flags & ~1:
            raise FormatError(f"unknown flag bits 0x{flags:02x}")
        (zlen,) = r.unpack("I")
        pz = Payload.from_bytes(r.take(zlen))
        (ylen,) = r.unpack("I")
        py = Payload.from_bytes(r.take(ylen))
        qt = None
        qt_min = qt_max = 0
        if flags & 1:
            qt_min, qt_max = r.unpack("HH")
            (nbits,) = r.unpack("I")
            qt = unpack_bits(r.take((nbits + 7) // 8), nbits)
        r.done()
        return cls(kind=CODER_KINDS[kind_idx], width=width, height=height,
                   payload_z=pz, payload_y=py, qt_bits=qt,
                   qt_min_block=qt_min, qt_max_block=qt_max)


def save_container(path, container):
    with open(path, "wb") as f:
        f.write(container.to_bytes())


def load_container(path):
    with open(path, "rb") as f:
        return BitstreamContainer.from_bytes(f.read())


# ---------------------------------------------------------------------------
# images
# ---------------------------------------------------------------------------

def _read_ppm_token(data, pos):
    while True:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
        else:
            break
    start = pos
    while pos < len(data) and not data[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise FormatError("unexpected end of pixmap header")
    return data[start:pos], pos


def parse_ppm(data):
    """Binary portable pixmap (P6, maxval 255) -> uint8 array (h, w, 3)."""
    if data[:2] != b"P6":
        raise FormatError("not a binary portable pixmap (want P6)")
    pos = 2
    vals = []
    for _ in range(3):
        tok, pos = _read_ppm_token(data, pos)
        if not tok.isdigit():
            raise FormatError(f"pixmap header field {tok!r} is not a decimal number")
        vals.append(int(tok))
    w, h, maxval = vals
    if w == 0 or h == 0:
        raise FormatError(f"empty pixmap {w}x{h}")
    if maxval != 255:
        raise FormatError(f"only 8-bit pixmaps supported, maxval={maxval}")
    r = _Reader(data)
    r.pos = pos + 1  # single whitespace byte after maxval
    raw = r.take(w * h * 3)
    r.done()
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)


def ppm_bytes(pixels):
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ShapeError(f"pixmap wants (h, w, 3) uint8, got {pixels.shape}")
    h, w, _ = pixels.shape
    return b"P6\n%d %d\n255\n" % (w, h) + pixels.tobytes()


def pixels_to_tensor(pixels):
    """uint8 (h, w, 3) -> float tensor (1, 3, h, w) in [0, 1]."""
    arr = np.asarray(pixels, dtype=np.float32) / np.float32(255.0)
    return Tensor(arr.transpose(2, 0, 1)[None])


def tensor_to_pixels(t):
    """Float tensor (1, 3, h, w) -> uint8 (h, w, 3), clipped and rounded
    half away from zero."""
    data = np.asarray(t.data if isinstance(t, Tensor) else t)
    if data.ndim != 4 or data.shape[0] != 1 or data.shape[1] != 3:
        raise ShapeError(f"expected (1, 3, h, w), got {data.shape}")
    return round_away(np.clip(data[0].transpose(1, 2, 0), 0.0, 1.0) * 255.0).astype(np.uint8)


def load_image(path):
    """Read a .ppm (always available) or .png (needs pillow) as a tensor."""
    path = str(path)
    if path.endswith(".ppm"):
        with open(path, "rb") as f:
            return pixels_to_tensor(parse_ppm(f.read()))
    if path.endswith(".png"):
        with _pillow().open(path) as im:
            return pixels_to_tensor(np.asarray(im.convert("RGB")))
    raise FormatError(f"unsupported image format: {path}")


def write_image(path, t):
    path = str(path)
    pixels = tensor_to_pixels(t)
    if path.endswith(".ppm"):
        with open(path, "wb") as f:
            f.write(ppm_bytes(pixels))
        return
    if path.endswith(".png"):
        _pillow().fromarray(pixels).save(path)
        return
    raise FormatError(f"unsupported image format: {path}")


def _pillow():
    try:
        from PIL import Image
    except ImportError as e:
        raise FormatError("png support needs the pillow package") from e
    return Image


# ---------------------------------------------------------------------------
# config types
# ---------------------------------------------------------------------------

# The CoderConfig fields (positive ints) an ExperimentConfig carries by name.
SHARED_FIELDS = ("channels", "core_width", "latent", "hyper_latent",
                 "pred_width", "features", "ctx_width", "kernel")
# Small dims for fast experiments and training at 32x32.
DESK_DIMS = dict(core_width=32, latent=32, hyper_latent=16, pred_width=32, ctx_width=8)


@dataclass(frozen=True)
class CoderConfig:
    kind: str
    channels: int = 3
    core_width: int = 64     # conv width of the analysis/synthesis stacks
    latent: int = 96         # transmitted latent channels
    hyper_latent: int = 32   # hyper-latent channels
    pred_width: int = 64     # prediction-branch width (codecnet)
    features: int = 0        # GD output channels; 0 picks the kind default
    ctx_width: int = 16
    kernel: int = 5
    enc_strides: tuple = (2, 2, 2, 2)

    def __post_init__(self):
        if self.kind not in CODER_KINDS:
            raise ContractError(f"kind must be one of {CODER_KINDS}, got {self.kind!r}")
        if self.features == 0:
            default = self.channels if self.kind == "gdc" else 16
            object.__setattr__(self, "features", default)
        for name in SHARED_FIELDS:
            if getattr(self, name) <= 0:
                raise ContractError(f"{name} must be positive")
        if self.kernel % 2 == 0:
            raise ContractError("kernel must be odd")
        if not self.enc_strides or min(self.enc_strides) < 1:
            raise ContractError(f"strides must be non-empty and each >= 1, "
                                f"got {self.enc_strides}")

    @property
    def stride_product(self):
        return math.prod(self.enc_strides)

    @classmethod
    def desk(cls, kind, **over):
        """DESK_DIMS, overridable per field."""
        return cls(kind, **{**DESK_DIMS, **over})


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat key = value configuration for CLI runs.  It describes one
    CoderConfig and one TrainConfig, takes their defaults and checks itself
    by building both.  Its field order is a sidecar's line order."""
    coder: str = "diff"
    channels: int = CoderConfig.channels
    core_width: int = CoderConfig.core_width
    latent: int = CoderConfig.latent
    hyper_latent: int = CoderConfig.hyper_latent
    pred_width: int = CoderConfig.pred_width
    features: int = CoderConfig.features
    ctx_width: int = CoderConfig.ctx_width
    kernel: int = CoderConfig.kernel
    strides: str = ",".join(map(str, CoderConfig.enc_strides))
    lmbda: float = TrainConfig.lmbda
    steps: int = TrainConfig.steps
    lr: float = TrainConfig.lr
    seed: int = TrainConfig.seed
    patch: int = TrainConfig.patch
    pairs: int = 200

    def __post_init__(self):
        for name in ("patch", "pairs"):
            if getattr(self, name) <= 0:
                raise ContractError(f"{name} must be positive")
        self.coder_config()
        self.train_config()

    def coder_config(self):
        return CoderConfig(self.coder, enc_strides=self.stride_tuple(),
                           **{name: getattr(self, name) for name in SHARED_FIELDS})

    def train_config(self):
        return TrainConfig(lmbda=self.lmbda, lr=self.lr, steps=self.steps,
                           seed=self.seed, patch=self.patch)

    def stride_tuple(self):
        try:
            return tuple(int(s) for s in self.strides.split(","))
        except ValueError as e:
            raise ContractError(f"bad strides {self.strides!r}") from e

    @classmethod
    def from_text(cls, text):
        types = {f.name: type(f.default) for f in dc_fields(cls)}
        values, seen = {}, {}
        for lineno, line in enumerate(text.splitlines(), 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise FormatError(f"config line {lineno}: expected key = value, got {line!r}")
            key, _, value = body.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in types:
                raise FormatError(f"config line {lineno}: unknown key {key!r}")
            if key in seen:
                raise FormatError(f"config lines {seen[key]} and {lineno} both set {key!r}")
            seen[key] = lineno
            try:
                values[key] = types[key](value)
            except ValueError as e:
                raise FormatError(f"config line {lineno}: bad value for {key!r}: {value!r}") from e
        return cls(**values)

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as f:
            try:
                text = f.read()
            except UnicodeDecodeError:
                raise FormatError(f"config {path} is not UTF-8 text") from None
        return cls.from_text(text)

    def to_text(self):
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in dc_fields(self)]
        return "\n".join(lines) + "\n"

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_text())
