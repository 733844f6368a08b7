"""The coder family: plain difference coding, conditional-latent coding,
and generalized difference coding with shallow feature transforms.

All four systems share one backbone: an analysis/synthesis conv pair with a
hyperprior whose hyper-latent is coded by a causal context model, and whose
main latent is coded with mean/scale Gaussians predicted from the
hyper-latent.  They differ only in what enters the analysis transform and
how the synthesis output is turned into a frame:

  diff      codes r = x - pred and reconstructs pred + r_hat
  codecnet  codes a latent of (x, pred); an untransmitted encoding of pred
            joins the decoder input; reconstruction is direct
  gdc       codes learned features g = GD(x, pred) and reconstructs with a
            learned synthesis GS(pred, g_hat); identical backbone to diff
  xgdc      widens GD to extra feature channels, feeds the analysis with
            (g, r) jointly, and exposes both a residual-style and a
            synthesis-style reconstruction decoded from one latent

The decode path takes only the prediction frame and the bitstream; it never
sees the original.  Encoder-side reconstructions are computed from the same
rounded latents the decoder will recover, so both ends agree bit for bit.

A coder is built from a ``CoderConfig``.  That type, with its ``DESK_DIMS``
preset, lives in ``fileio`` beside the experiment config that describes it,
and is imported here so that ``coders.CoderConfig`` names it as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import entropy as E
from . import evaluation as V
from . import tensor as T
from .errors import ContractError, ShapeError, StreamError
from .fileio import (CODER_KINDS, DESK_DIMS, BitstreamContainer, CoderConfig,
                     Payload)
from .layers import (Network, ParamStore, check_shapes, context_spec, decoder_spec,
                     encoder_spec, feature_spec, hyper_decoder_spec, hyper_encoder_spec,
                     make_network, pred_branch_spec)

KINDS = CODER_KINDS


def coder_specs(cfg):
    """prefix -> NetworkSpec for every subnet the kind needs."""
    C, k = cfg.channels, cfg.kernel
    enc_in = {"diff": C, "codecnet": 2 * C, "gdc": cfg.features,
              "xgdc": cfg.features + C}[cfg.kind]
    dec_out = {"diff": C, "codecnet": C, "gdc": cfg.features,
               "xgdc": cfg.features + C}[cfg.kind]
    dec_in = cfg.latent + (cfg.pred_width if cfg.kind == "codecnet" else 0)
    specs = {
        "enc": encoder_spec(enc_in, cfg.core_width, cfg.latent, k, cfg.enc_strides),
        "dec": decoder_spec(dec_in, cfg.core_width, dec_out, k, cfg.enc_strides),
        "hyp_enc": hyper_encoder_spec(cfg.latent, cfg.core_width, cfg.hyper_latent),
        "hyp_dec": hyper_decoder_spec(cfg.hyper_latent, cfg.core_width, cfg.latent),
        "ctx": context_spec(cfg.hyper_latent, cfg.ctx_width),
    }
    if cfg.kind in ("gdc", "xgdc"):
        specs["gd"] = feature_spec(2 * C, cfg.features, k, "gd")
        specs["gs"] = feature_spec(C + dec_out, C, k, "gs")
    if cfg.kind == "codecnet":
        specs["pred"] = pred_branch_spec(C, cfg.pred_width, k, cfg.enc_strides)
    return specs


def _param_shapes(specs):
    return {n: s for p, spec in specs.items() for n, s in spec.param_shapes(p).items()}


def pad_to_multiple(arr, m):
    """Pad H and W up to multiples of m (reflective, replicate fallback for
    frames smaller than the required margin).  Returns the padded array."""
    n, c, h, w = arr.shape
    ph = (-h) % m
    pw = (-w) % m
    if ph == 0 and pw == 0:
        return arr
    mode = "reflect" if (ph < h and pw < w) else "edge"
    return np.pad(arr, ((0, 0), (0, 0), (0, ph), (0, pw)), mode=mode)


@dataclass
class CoderOutput:
    """Everything a forward pass produces.  Rates are scalar graph tensors
    measured in bits; reconstructions are graph tensors; latents is a dict
    of detached arrays for inspection."""
    kind: str
    x_hat_d: object = None
    x_hat_g: object = None
    rate_y: object = None
    rate_z: object = None
    latents: dict = field(default_factory=dict)
    x_hat_merged: object = None
    qt_result: object = None

    def total_rate(self):
        return T.add(self.rate_y, self.rate_z)

    def single(self):
        """The unique reconstruction for kinds that define exactly one."""
        if self.x_hat_d is not None and self.x_hat_g is not None:
            raise ContractError(f"{self.kind} defines two reconstructions; pick one")
        return self.x_hat_d if self.x_hat_d is not None else self.x_hat_g


class Coder:
    """A coder kind bound to its parameters."""

    def __init__(self, cfg, params):
        self.cfg = cfg
        self.params = params
        self.specs = coder_specs(cfg)
        check_shapes(_param_shapes(self.specs), params.arrays())
        self.nets = {p: Network(s, params, p) for p, s in self.specs.items()}

    # -- construction -------------------------------------------------------

    @classmethod
    def new(cls, cfg, seed=0, dtype=np.float32):
        rng = np.random.default_rng(seed)
        params = ParamStore(dtype)
        for prefix, spec in coder_specs(cfg).items():
            make_network(spec, params, prefix, rng=rng)
        return cls(cfg, params)

    @classmethod
    def from_arrays(cls, cfg, arrays):
        """A float32 coder holding copies of ``arrays``, stored in spec order."""
        shapes = _param_shapes(coder_specs(cfg))
        check_shapes(shapes, arrays)
        params = ParamStore()
        for name in shapes:
            params.add(name, arrays[name])
        return cls(cfg, params)

    # -- forward ------------------------------------------------------------

    def _check_pair(self, x, xt):
        if x.shape != xt.shape:
            raise ShapeError(f"frame/prediction shape mismatch {x.shape} vs {xt.shape}")
        if x.size == 0:
            raise ShapeError(f"empty frame {x.shape}")
        if x.shape[1] != self.cfg.channels:
            raise ShapeError(f"expected {self.cfg.channels} channels, got {x.shape[1]}")

    def _core_input(self, x, xt):
        kind = self.cfg.kind
        if kind == "diff":
            return T.sub(x, xt)
        if kind == "codecnet":
            return T.concat_channels([x, xt])
        g = self.nets["gd"](T.concat_channels([x, xt]))
        if kind == "gdc":
            return g
        return T.concat_channels([g, T.sub(x, xt)])

    def _reconstruct(self, y_hat, xt):
        kind = self.cfg.kind
        if kind == "diff":
            r_hat = self.nets["dec"](y_hat)
            return T.add(xt, r_hat), None
        if kind == "codecnet":
            yp = self.nets["pred"](xt)
            return None, self.nets["dec"](T.concat_channels([y_hat, yp]))
        if kind == "gdc":
            g_hat = self.nets["dec"](y_hat)
            return None, self.nets["gs"](T.concat_channels([xt, g_hat]))
        d = self.nets["dec"](y_hat)
        x_hat_d = T.add(xt, T.slice_channels(d, 0, self.cfg.channels))
        d = T.concat_channels([xt, d])  # d itself is not held while gs runs
        return x_hat_d, self.nets["gs"](d)

    def forward(self, x, xt, mode="noise", rng=None):
        """Run the full train-time graph.  ``mode`` is 'noise' (additive
        U[-1/2,1/2), needs ``rng``) or 'round'.  The hyper-latent is
        quantized before the main latent, which fixes the rng draw order.
        In round mode the hyper decoder and the context net run once each
        on the exact grid with no gradient, and the latents keep their
        outputs as coding reads them: ``mean`` and ``raw_scale``, and the
        float64 ``z_params`` (None in noise mode)."""
        self._check_pair(x, xt)
        h, w = x.shape[2:]
        sp = self.cfg.stride_product
        if h % sp or w % sp:
            raise ContractError(f"frame size {h}x{w} not divisible by total stride {sp}")
        y = self.nets["enc"](self._core_input(x, xt))
        z = self.nets["hyp_enc"](y)
        z_hat = E.quantize(z, mode, rng)
        y_hat = E.quantize(y, mode, rng)
        if mode == "round":
            h = T.Tensor(E.on_grid(self.nets["hyp_dec"], z_hat.data).astype(self.params.dtype))
            z_params = E.context_params(self.nets["ctx"], z_hat.data)
            bits_z = E.gaussian_bits(z_hat, T.Tensor(z_params.astype(self.params.dtype)))
        else:
            h, z_params = self.nets["hyp_dec"](z_hat), None
            bits_z = E.context_bits(z_hat, self.nets["ctx"])
        h = self._crop(h, y.shape[2], y.shape[3])
        rate_y = T.sum_all(E.gaussian_bits(y_hat, h))
        x_hat_d, x_hat_g = self._reconstruct(y_hat, xt)
        return CoderOutput(
            kind=self.cfg.kind, x_hat_d=x_hat_d, x_hat_g=x_hat_g,
            rate_y=rate_y, rate_z=T.sum_all(bits_z),
            latents={"y": y.data, "y_hat": y_hat.data, "z": z.data,
                     "z_hat": z_hat.data, "mean": h.data[:, :self.cfg.latent],
                     "raw_scale": h.data[:, self.cfg.latent:], "z_params": z_params})

    # -- real coding --------------------------------------------------------

    def _frame(self, a):
        """One frame or prediction (array or Tensor) in the coder's dtype."""
        arr = np.asarray(a.data if isinstance(a, T.Tensor) else a, dtype=self.params.dtype)
        if arr.ndim != 4 or arr.shape[:2] != (1, self.cfg.channels):
            raise ShapeError(f"expected one frame of shape (1, {self.cfg.channels}, h, w), "
                             f"got {arr.shape}")
        return arr

    def _check_quadtree(self):
        """Quad-tree side information picks between two reconstructions,
        so only the two-reconstruction kind codes or decodes it."""
        if self.cfg.kind != "xgdc":
            raise ContractError("quad-tree hybrid coding needs the two-reconstruction kind")

    def encode(self, x, xt, qt_lambda=None, min_block=V.MIN_BLOCK, max_block=V.MAX_BLOCK):
        """Code a frame against its prediction; returns (container, output).

        This is the round-mode forward pass plus the rANS coder: the
        rounded latents are coded under the parameters that pass rated them
        with (latents ``mean``, ``raw_scale`` and ``z_params``), and its
        rates become the payloads' ``est_bits``.  Both frames enter in the
        coder's dtype.  Frames of any size are padded to the stride multiple
        and the true size is recorded in the container.  For the
        two-reconstruction kind, passing ``qt_lambda`` also runs the
        quad-tree mode search and embeds its side information.
        """
        if qt_lambda is not None:
            self._check_quadtree()
        xd_arr, xt_arr = self._frame(x), self._frame(xt)
        self._check_pair(xd_arr, xt_arr)
        true_h, true_w = xd_arr.shape[2], xd_arr.shape[3]
        sp = self.cfg.stride_product
        xp = T.Tensor(pad_to_multiple(xd_arr, sp))
        if qt_lambda is not None:
            # reject a bad search before the forward pass and the entropy coding
            V.check_lambda(qt_lambda)
            V.root_block(xp.shape[2], xp.shape[3], min_block, max_block)
        with T.no_grad():
            out = self.forward(xp, T.Tensor(pad_to_multiple(xt_arr, sp)), mode="round")
            lat = out.latents
            stream_z, sup_z = E.encode_context(lat["z_hat"], self.nets["ctx"], lat["z_params"])
            stream_y, sup_y = E.encode_gaussian(lat["y_hat"], lat["mean"], lat["raw_scale"])
            pz = Payload(stream=stream_z, lo=sup_z[0], hi=sup_z[1],
                         symbol_count=lat["z_hat"].size, est_bits=out.rate_z.item())
            py = Payload(stream=stream_y, lo=sup_y[0], hi=sup_y[1],
                         symbol_count=lat["y_hat"].size, est_bits=out.rate_y.item())

            qt_bits = None
            if qt_lambda is not None:
                res = V.quadtree_search(xp.data, out.x_hat_d.data, out.x_hat_g.data,
                                        qt_lambda, min_block=min_block,
                                        max_block=max_block)
                qt_bits = res.bits
                out.qt_result = res
                out.x_hat_merged = self._crop(T.Tensor(res.merged), true_h, true_w)
            out.x_hat_d = self._crop(out.x_hat_d, true_h, true_w)
            out.x_hat_g = self._crop(out.x_hat_g, true_h, true_w)

            container = BitstreamContainer(
                kind=self.cfg.kind, width=true_w, height=true_h,
                payload_z=pz, payload_y=py, qt_bits=qt_bits,
                qt_min_block=min_block if qt_bits is not None else 0,
                qt_max_block=max_block if qt_bits is not None else 0)
        return container, out

    @staticmethod
    def _crop(t, h, w):
        if t is None:
            return None
        if t.shape[2] == h and t.shape[3] == w:
            return t
        return T.crop_spatial(t, 0, h, 0, w)

    def decode(self, xt, container):
        """Reconstruct from prediction + bitstream alone; the prediction
        enters in the coder's dtype."""
        if container.kind != self.cfg.kind:
            raise ContractError(f"container is {container.kind!r}, coder is {self.cfg.kind!r}")
        if container.qt_bits is not None:
            self._check_quadtree()
        xt_arr = self._frame(xt)
        if xt_arr.shape[2] != container.height or xt_arr.shape[3] != container.width:
            raise ShapeError(f"prediction is {xt_arr.shape[2]}x{xt_arr.shape[3]}, "
                             f"container says {container.height}x{container.width}")
        sp = self.cfg.stride_product
        with T.no_grad():
            xtp = T.Tensor(pad_to_multiple(xt_arr, sp))
            ph, pw = xtp.shape[2], xtp.shape[3]
            # the side information is checked before any entropy decoding
            leaves = None if container.qt_bits is None else V.parse_quadtree(
                container.qt_bits, ph, pw, container.qt_min_block, container.qt_max_block)
            yh, yw = (self.specs["enc"].out_size(n) for n in (ph, pw))
            zh, zw = (self.specs["hyp_enc"].out_size(n) for n in (yh, yw))
            z_shape = (1, self.cfg.hyper_latent, zh, zw)
            z_arr = E.decode_context(container.payload_z.stream, self.nets["ctx"],
                                     z_shape, (container.payload_z.lo, container.payload_z.hi))
            z_hat = T.Tensor(z_arr.astype(self.params.dtype))
            y_shape = (1, self.cfg.latent, yh, yw)
            h = E.on_grid(self.nets["hyp_dec"], z_hat.data)[..., :yh, :yw].astype(self.params.dtype)
            c = self.cfg.latent
            y_flat = E.decode_gaussian(container.payload_y.stream, h[:, :c], h[:, c:],
                                       (container.payload_y.lo, container.payload_y.hi),
                                       int(np.prod(y_shape)))
            y_hat = T.Tensor(y_flat.reshape(y_shape).astype(self.params.dtype))
            # an escape can put any value in y_hat, enough to overflow synthesis
            with np.errstate(over="ignore", invalid="ignore"):
                x_hat_d, x_hat_g = self._reconstruct(y_hat, xtp)
            for t in (x_hat_d, x_hat_g):
                if t is not None and not np.isfinite(t.data).all():
                    raise StreamError("stream decodes to a non-finite reconstruction")
            out = CoderOutput(
                kind=self.cfg.kind,
                x_hat_d=self._crop(x_hat_d, container.height, container.width),
                x_hat_g=self._crop(x_hat_g, container.height, container.width),
                latents={"y_hat": y_hat.data, "z_hat": z_hat.data})
            if leaves is not None:
                merged = V.merge_reconstructions(x_hat_d.data, x_hat_g.data, leaves)
                out.x_hat_merged = self._crop(T.Tensor(merged), container.height, container.width)
        return out


def gdc_from_diff(diff_coder):
    """Build the generalized coder whose feature transforms start as exact
    difference/sum, sharing every backbone weight with ``diff_coder``.
    By construction its outputs and rates match the difference coder's
    bit for bit until training moves the weights."""
    if diff_coder.cfg.kind != "diff":
        raise ContractError("source coder must be the difference kind")
    cfg = replace(diff_coder.cfg, kind="gdc", features=diff_coder.cfg.channels)
    params = ParamStore(diff_coder.params.dtype)
    specs = coder_specs(cfg)
    make_network(specs["gd"], params, "gd", init="identity-difference")
    for name, t in diff_coder.params.items():
        params.add(name, t.data)
    make_network(specs["gs"], params, "gs", init="identity-sum")
    return Coder(cfg, params)
