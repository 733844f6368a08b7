"""Command-line front end.

Subcommands:
  infolab   exact information-theory verification sweep, CSV report
  train     fit a coder on synthetic or directory-sourced pairs
  encode    frame + prediction -> bitstream container
  decode    prediction + container -> reconstruction (never sees the frame)
  eval      per-frame rate/quality CSV over a corpus
  bdrate    Bjontegaard rate delta between two curve CSVs
  quadtree  standalone mode search between two candidate reconstructions
  selftest  decode the golden containers, exit 0 when they decode as recorded
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import coders as CD
from . import entropy as E
from . import evaluation as EV
from . import fileio as F
from . import infolab as IL
from . import training as TR
from . import tensor as T
from .errors import ContractError, FormatError, GdclabError, ShapeError


def _load_model(path, config=None):
    """Checkpoint plus its sidecar config -> ready Coder."""
    cfg_path = config if config else str(path) + ".cfg"
    if not Path(cfg_path).exists():
        raise ContractError(f"no config found at {cfg_path}; pass --config")
    ecfg = F.ExperimentConfig.from_file(cfg_path)
    return CD.Coder.from_arrays(ecfg.coder_config(), F.load_checkpoint(path)), ecfg


def _load_images(directory):
    paths = sorted(p for p in Path(directory).iterdir()
                   if p.suffix in (".ppm", ".png"))
    if not paths:
        raise ContractError(f"no .ppm/.png images in {directory}")
    return [F.load_image(p).data for p in paths]


def _at_least(flag, value, least):
    if value < least:
        raise ContractError(f"{flag} must be at least {least}, got {value}")


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


# -- infolab ----------------------------------------------------------------

def cmd_infolab(args):
    _at_least("--cases", args.cases, 1)
    _at_least("--maps", args.maps, 0)
    _at_least("--seed", args.seed, 0)
    rng = np.random.default_rng(args.seed)
    header = ["case", "generator", "map", "nx", "nxt", "H_x", "H_xt", "H_R",
              "H_x_given_xt", "I_xt_R", "residual_abs", "H_y", "H_x_given_y",
              "I_x_xt_given_y", "injective", "ok"]
    rows = []
    for case in range(args.cases):
        gen = ("random", "additive", "perfect")[case % 3]
        if gen == "random":
            j = IL.random_joint(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        elif gen == "additive":
            j = IL.additive_noise_joint(rng, int(rng.integers(3, 7)), int(rng.integers(1, 3)))
        else:
            j = IL.perfect_prediction_joint(rng, int(rng.integers(2, 7)))
        base = {"case": case, "generator": gen, "nx": len(j.alphabet_x),
                "nxt": len(j.alphabet_xt), "H_x": IL.entropy(j.marginal_x()),
                "H_xt": IL.entropy(j.marginal_xt())}
        row = {**base, **IL.verify_main_identity(j), "ok": True}
        rows.append([row.get(key, "") for key in header])
        for m in range(args.maps):
            inj = m % 3 == 0
            f = IL.random_map(rng, j.alphabet_xt, injective=inj,
                              codomain_size=max(1, len(j.alphabet_xt) // 2))
            brep = IL.bottleneck_report(j, f)
            row = {**base, "map": m, **brep, "injective": f.is_injective(),
                   "ok": all(brep["checks"].values())}
            rows.append([row.get(key, "") for key in header])
    _write_csv(args.out, header, rows)
    print(f"infolab: {args.cases} joints x {args.maps} maps verified, "
          f"report at {args.out}")
    return 0


# -- train ------------------------------------------------------------------

def _build_pairs(args, ecfg):
    rng = np.random.default_rng(ecfg.seed)
    if args.data:
        images = _load_images(args.data)
        step, achieved = TR.calibrate_quant_step(
            images, TR.GenConfig(patch=ecfg.patch, max_shift=2), seed=ecfg.seed)
        print(f"degradation step {step:.2f} -> {achieved:.2f} dB")
        pairs = []
        for i in range(ecfg.pairs):
            img = images[i % len(images)]
            if i % 2 == 0:
                gen = TR.GenConfig(patch=ecfg.patch, max_shift=1, quant_step=step)
            else:
                gen = TR.GenConfig(patch=ecfg.patch, max_shift=2, blur=0.5,
                                   quant_step=step, noise=0.03)
            pairs.append(TR.make_pair(img, gen, rng))
        return pairs
    return TR.make_corpus(rng, ecfg.pairs, patch=ecfg.patch)


def cmd_train(args):
    base = F.ExperimentConfig.from_file(args.config) if args.config \
        else F.ExperimentConfig()
    overrides = {name: getattr(args, name)
                 for name in ("coder", "lmbda", "steps", "seed", "patch", "pairs")
                 if getattr(args, name) is not None}
    if args.preset == "desk":
        overrides.update(CD.DESK_DIMS)
    ecfg = replace(base, **overrides)
    if args.init_from:
        if ecfg.coder != "gdc":
            raise ContractError("--init-from applies to the gdc kind only")
        diff_coder, diff_cfg = _load_model(args.init_from)
        coder = CD.gdc_from_diff(diff_coder)
        dims = {name: getattr(diff_cfg, name) for name in F.SHARED_FIELDS}
        dims["features"] = coder.cfg.features
        ecfg = replace(ecfg, strides=diff_cfg.strides, **dims)
    else:
        coder = CD.Coder.new(ecfg.coder_config(), seed=ecfg.seed)

    pairs = _build_pairs(args, ecfg)
    tc = ecfg.train_config()
    log_rows = []
    state = None
    done = 0
    epoch = 0
    while done < ecfg.steps:
        stats, state = TR.train_epoch(coder, pairs[:ecfg.steps - done],
                                      replace(tc, seed=tc.seed + epoch), state)
        done += stats.steps
        epoch += 1
        log_rows.append([epoch, done, stats.mean_loss, stats.mean_bpp,
                         stats.mean_psnr, stats.mode_d_fraction])
        print(f"epoch {epoch}: steps {done} loss {stats.mean_loss:.3f} "
              f"bpp {stats.mean_bpp:.4f} psnr {stats.mean_psnr:.2f}")
    F.save_checkpoint(args.out, coder.params.arrays())
    ecfg.save(str(args.out) + ".cfg")
    if args.log:
        _write_csv(args.log, ["epoch", "steps", "loss", "bpp", "psnr", "mode_d"],
                   log_rows)
    print(f"saved {coder.params.total_params()} parameters to {args.out}")
    return 0


# -- encode / decode --------------------------------------------------------

def _default_recon(out, mode="auto"):
    """The reconstruction ``mode`` names and its tag; "auto" names the
    merged one if present, else d if present, else g."""
    if mode == "auto":
        mode = next(m for m in ("merged", "d", "g") if getattr(out, "x_hat_" + m) is not None)
    recon = getattr(out, "x_hat_" + mode)
    if recon is None:
        raise ContractError(f"container holds no {mode!r} reconstruction")
    return recon, mode


def cmd_encode(args):
    coder, _ = _load_model(args.model, args.config)
    x = F.load_image(args.frame)
    xt = F.load_image(args.pred)
    container, out = coder.encode(
        x.data, xt.data, qt_lambda=args.qt_lambda,
        min_block=args.min_block, max_block=args.max_block)
    F.save_container(args.out, container)
    bpp = EV.bits_per_pixel(container.total_bits(), container.height, container.width)
    recon, tag = _default_recon(out)
    print(f"{container.kind}: {container.total_bits() // 8} bytes, "
          f"{bpp:.4f} bpp, psnr_{tag} {EV.psnr(recon.data, x.data):.2f} dB")
    if args.recon:
        F.write_image(args.recon, recon)
    return 0


def cmd_decode(args):
    coder, _ = _load_model(args.model, args.config)
    xt = F.load_image(args.pred)
    container = F.load_container(args.stream)
    recon, tag = _default_recon(coder.decode(xt.data, container), args.mode)
    F.write_image(args.out, recon)
    print(f"decoded {container.kind} ({tag}) -> {args.out}")
    return 0


# -- eval / bdrate / quadtree ----------------------------------------------

def cmd_eval(args):
    _at_least("--frames", args.frames, 1)
    _at_least("--seed", args.seed, 0)
    coder, ecfg = _load_model(args.model, args.config)
    lam = args.lmbda if args.lmbda is not None else ecfg.lmbda
    EV.check_lambda(lam)
    rng = np.random.default_rng(args.seed)
    if args.data:
        images = _load_images(args.data)
        pairs = []
        for i in range(args.frames):
            gen = TR.GenConfig(patch=ecfg.patch, max_shift=1, quant_step=16.0,
                               noise=0.0 if i % 2 == 0 else 0.03)
            pairs.append(TR.make_pair(images[i % len(images)], gen, rng))
    else:
        pairs = TR.make_corpus(rng, args.frames, patch=ecfg.patch)
    header = ["frame", "coder", "lambda", "bpp", "psnr", "psnr_d", "psnr_g",
              "mode_d_fraction"]
    rows = []
    for i, (x, xt) in enumerate(pairs):
        qt = lam if coder.cfg.kind == "xgdc" else None
        container, out = coder.encode(x, xt, qt_lambda=qt)
        bpp = EV.bits_per_pixel(container.total_bits(), container.height,
                                container.width)
        recon, _ = _default_recon(out)
        rows.append([
            i, coder.cfg.kind, lam, f"{bpp:.6f}",
            f"{EV.psnr(recon.data, x):.4f}",
            f"{EV.psnr(out.x_hat_d.data, x):.4f}" if out.x_hat_d is not None else "",
            f"{EV.psnr(out.x_hat_g.data, x):.4f}" if out.x_hat_g is not None else "",
            f"{out.qt_result.mode_d_fraction:.4f}" if out.qt_result else ""])
    _write_csv(args.out, header, rows)
    mean_bpp = np.mean([float(r[3]) for r in rows])
    mean_psnr = np.mean([float(r[4]) for r in rows])
    print(f"eval: {len(rows)} frames, mean {mean_bpp:.4f} bpp / {mean_psnr:.2f} dB, "
          f"rows at {args.out}")
    return 0


def _read_curve(path):
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        try:
            # rows parse as they are read, so line_num is the failing line
            pts = sorted((float(r["bpp"]), float(r["psnr"])) for r in reader)
        except UnicodeDecodeError:
            raise FormatError(f"{path}: not UTF-8 text") from None
        except (KeyError, TypeError, ValueError):
            raise FormatError(f"{path}, line {reader.line_num}: need a number in "
                              f"both the bpp and the psnr column") from None
    return [EV.RDPoint(b, p) for b, p in pts]


def cmd_bdrate(args):
    val = EV.bd_rate(_read_curve(args.reference), _read_curve(args.test))
    print(f"{val:.1f}%")
    return 0


def cmd_quadtree(args):
    x, d, g = (F.load_image(p).data for p in (args.frame, args.cand_d, args.cand_g))
    if x.shape != d.shape or x.shape != g.shape:
        raise ShapeError("frame and candidates must share dimensions")
    # a min_block square tiles whenever the block range is valid, so this
    # checks the range alone, before min_block sets the padding multiple
    EV.root_block(args.min_block, args.min_block, args.min_block, args.max_block)
    xp, dp, gp = (CD.pad_to_multiple(a, args.min_block) for a in (x, d, g))
    res = EV.quadtree_search(xp, dp, gp, args.lmbda,
                             min_block=args.min_block, max_block=args.max_block)
    print(f"cost {res.cost:.1f}, {res.side_bits} side bits, "
          f"mode-d fraction {res.mode_d_fraction:.3f}")
    if args.out:
        _write_csv(args.out, EV.QTLeaf._fields, res.leaves)
    if args.merged:
        h, w = x.shape[2], x.shape[3]
        F.write_image(args.merged, T.Tensor(res.merged[:, :, :h, :w]))
    return 0


# -- selftest ---------------------------------------------------------------

GOLDEN = resources.files(__package__) / "golden"   # written by tools/golden.py
PSNR_TOL_DB = 0.001


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def golden_inputs(case):
    """A golden case's coder and frames, rebuilt from its seeds, and their
    SHA-256: a desk coder whose latents are scaled by the case's gain (its
    synthesis divides it back out) and two independent uniform frames."""
    cfg, gain = CD.CoderConfig.desk(case["kind"]), case["gain"]
    w = CD.Coder.new(cfg, seed=case["coder_seed"]).params.arrays()
    w["enc.3.w"], w["enc.3.b"] = w["enc.3.w"] * gain, w["enc.3.b"] * gain
    w["dec.0.w"] = w["dec.0.w"] / gain
    coder = CD.Coder.from_arrays(cfg, w)
    x, xt = np.random.default_rng(case["frame_seed"]).uniform(
        size=(2, 1, 3, case["size"], case["size"])).astype(np.float32)
    weights = F.checkpoint_bytes(coder.params.arrays())
    return coder, x, xt, {"weights": _sha256(weights), "x": _sha256(x), "xt": _sha256(xt)}


def golden_outputs(dec, x):
    """The SHA-256 of a decode's latents, and each reconstruction's PSNR."""
    recons = {m: getattr(dec, "x_hat_" + m) for m in ("d", "g", "merged")}
    return ({k: _sha256(dec.latents[k]) for k in ("z_hat", "y_hat")},
            {m: EV.psnr(r.data, x) for m, r in recons.items() if r is not None})


def golden_tables(container):
    """The SHA-256 of the table set of each payload's support."""
    return {k: _sha256(E._table_set(p.lo, p.hi))
            for k, p in (("z", container.payload_z), ("y", container.payload_y))}


def _golden_case_failure(case):
    """None when a case decodes as recorded, else the suffix of its failure line."""
    coder, x, xt, inputs = golden_inputs(case)
    if inputs != case["inputs"]:
        return ""
    container = F.BitstreamContainer.from_bytes((GOLDEN / case["file"]).read_bytes())
    if golden_tables(container) != case["tables"]:
        return " (tables)"
    latents, psnr = golden_outputs(coder.decode(xt, container), x)
    ok = latents == case["latents"] and psnr.keys() == case["psnr"].keys() and all(
        abs(psnr[m] - case["psnr"][m]) <= PSNR_TOL_DB for m in psnr)
    return None if ok else ""


def cmd_selftest(args):
    """Decode each golden container with its case's rebuilt coder: the
    inputs, the tables and then the decoded latents must hash as the manifest
    says, and each PSNR must lie within PSNR_TOL_DB of it.  The first case that
    fails, or raises a package error, ends the run with exit status 1."""
    for case in json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8")):
        try:
            failure = _golden_case_failure(case)
        except GdclabError:
            failure = ""
        if failure is not None:
            print(f"selftest failed: {case['name']}{failure}")
            return 1
        print(f"ok {case['name']}")
    print("selftest passed")
    return 0


# -- parser -----------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="gdclab",
        description="Conditional-coding laboratory: exact information-theory "
                    "checks, four trainable coders with real bitstreams, and "
                    "rate-distortion evaluation tools.")
    sub = p.add_subparsers(dest="command", required=True)
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", required=True)
    model.add_argument("--config")

    s = sub.add_parser("infolab", help="verify the residual/bottleneck identities")
    s.add_argument("--cases", type=int, default=100)
    s.add_argument("--maps", type=int, default=20)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default="infolab_report.csv")
    s.set_defaults(func=cmd_infolab)

    s = sub.add_parser("train", help="train a coder")
    s.add_argument("--coder", choices=CD.KINDS)
    s.add_argument("--config", help="experiment config file")
    s.add_argument("--lambda", dest="lmbda", type=float)
    s.add_argument("--steps", type=int)
    s.add_argument("--seed", type=int)
    s.add_argument("--patch", type=int)
    s.add_argument("--pairs", type=int)
    s.add_argument("--data", help="directory of .ppm/.png images; synthetic corpus if omitted")
    s.add_argument("--preset", choices=("default", "desk"), default="default")
    s.add_argument("--init-from", help="diff checkpoint for staged gdc initialization")
    s.add_argument("--out", required=True, help="checkpoint output path")
    s.add_argument("--log", help="CSV training log path")
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("encode", help="encode a frame against a prediction", parents=[model])
    s.add_argument("--frame", required=True)
    s.add_argument("--pred", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--qt-lambda", type=float, default=None,
                   help="enable quad-tree mode search (xgdc only)")
    s.add_argument("--min-block", type=int, default=EV.MIN_BLOCK)
    s.add_argument("--max-block", type=int, default=EV.MAX_BLOCK)
    s.add_argument("--recon", help="also write the encoder-side reconstruction")
    s.set_defaults(func=cmd_encode)

    s = sub.add_parser("decode", help="decode a container against a prediction", parents=[model])
    s.add_argument("--pred", required=True)
    s.add_argument("--stream", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--mode", choices=("auto", "d", "g", "merged"), default="auto")
    s.set_defaults(func=cmd_decode)

    s = sub.add_parser("eval", help="rate/quality table over a corpus", parents=[model])
    s.add_argument("--lambda", dest="lmbda", type=float, default=None)
    s.add_argument("--data")
    s.add_argument("--frames", type=int, default=20)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default="eval.csv")
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("bdrate", help="rate delta between two curve CSVs")
    s.add_argument("reference")
    s.add_argument("test")
    s.set_defaults(func=cmd_bdrate)

    s = sub.add_parser("quadtree", help="mode search between two reconstructions")
    s.add_argument("--frame", required=True)
    s.add_argument("--cand-d", required=True)
    s.add_argument("--cand-g", required=True)
    s.add_argument("--lambda", dest="lmbda", type=float, required=True)
    s.add_argument("--min-block", type=int, default=EV.MIN_BLOCK)
    s.add_argument("--max-block", type=int, default=EV.MAX_BLOCK)
    s.add_argument("--out", help="CSV of chosen leaves")
    s.add_argument("--merged", help="write the merged reconstruction image")
    s.set_defaults(func=cmd_quadtree)

    s = sub.add_parser("selftest", help="decode the golden containers and check them")
    s.set_defaults(func=cmd_selftest)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GdclabError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
