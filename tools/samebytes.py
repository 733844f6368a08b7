"""Hash what the package produces, to prove a refactor keeps the same bytes.

    python3 tools/samebytes.py <repo root> [hd]

Imports the package from ``<root>/src`` and the benchmark fixtures from
``<root>/bench``, runs a fixed set of seeded cases and prints one SHA-256
per case group, one for the container bytes (``streams``) and a total.  Run it once against a checkout of the parent
commit and once against the change: identical lines mean identical
streams, reconstructions, rate estimates and training figures.  The script
only calls API that has been stable across refactors, so one copy hashes
both trees.

Cases:
  desk      all four kinds at seed 5, float32 and float64, at 32x32 and a
            padded 70x100; xgdc also with quad-tree lambda 50 and 400
  fixture   the benchmark's diff and xgdc coders at 128x128 and 72x120,
            xgdc with and without quad-tree lambda 300
  gdc       gdc_from_diff against its source diff coder
  load      checkpoint_bytes -> parse_checkpoint -> Coder.from_arrays for
            each desk kind at seed 7 and for gdc_from_diff of the diff one,
            whose stored order starts with gd: the checkpoint bytes and the
            names, order and bytes of the loaded parameters
  training  a make_corpus corpus, train_epoch and evaluate_pairs figures
  infolab   random joints of the three generators and their identity and
            bottleneck reports
  layers    conv2d and tconv2d at k 1/3/5, stride 1/2/3, batch 2 and odd
            sizes, tconv2d at the HD synthesis widths (32->32 and 32->3,
            k 5, stride 2, from a 17x23 grid), tconv2d 32->32 k 5 stride
            2 from 136x240 and conv2d 32->32 k 5 stride 1 from 136x240
            (each of their passes spans many bands of columns), tconv2d
            k 7 stride 4 (16 phases of 2 x 2 taps, zero-filled past the
            kernel's edge), and masked_conv2d with masks A and B at k
            1/3/5, in float32 and float64: the output and the input,
            weight and bias gradients of a seeded linear loss
  tensor    every tensor op, prelu, gdn both ways and noise quantize in
            float32 and float64: the output and the input gradients of a
            seeded linear loss, with mul also on (x, x) and concat on
            repeated inputs
  nets      graph-free Network forwards (under no_grad) of the feature
            transforms gd (6->16->16->16) and gs (22->16->16->3) at k 5,
            the hyper encoder and a k 5 encoder and k 3 decoder with GDN,
            at batch 2 and 37x29, with random biases and slopes, in
            float32 and float64, with the column buffer at its size and
            cut to 2,000 cells: the output and the input after the call
  rate      a noise-mode Coder.forward of each desk kind at seed 5, in
            float32 and float64, at 32x32 and a cropped 48x80: rate_y,
            rate_z and the gradients of total_rate() for the frame, the
            prediction and every parameter
  quadtree  quadtree_search on one root (16x16) and several (8x16, 48x32),
            min_block 4/8, max_block 8/16/256, lambda 0/1/50/300/2000, in
            float32 and float64, with a quarter of the 4x4 blocks tied:
            bits, merged, cost, side_bits and mode_d_fraction
  cli       the command line run in a temporary directory: the infolab CSV
            at seed 0, the --help text of the parser and of every
            subcommand, and for a desk coder of each kind at seed 5 saved
            with its sidecar, the container and PPM bytes of ``encode
            --recon`` on a 32x32 pair (xgdc also with --qt-lambda 50), of
            ``decode`` in every mode the container holds, and the eval CSV
            of the diff coder, with each command's printed line
  hd        (only with ``hd``) the diff fixture at 1088x1920
Each coded case hashes x_hat_d, x_hat_g, x_hat_merged, both payloads'
est_bits and the decoder's reconstructions in its group, and its container
bytes on the line ``streams``, after the groups.  That line also takes the
cli group's container files and the figures printed from their size (the
encode line, and the eval line and CSV), so a change of entropy coder that
keeps every decoded latent shows as a change of ``streams`` alone.  A masked
layer's weight gradient is 0 at its masked taps however the layer is
written, but multiplying by a 0/1 mask leaves -0.0 where the upstream
gradient is negative; the masked cases therefore fold -0.0 into +0.0
before hashing, and every other array is hashed bit for bit.
"""

from __future__ import annotations

import hashlib
import os
import sys


def _setup(root):
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import gdclab
    src = os.path.join(root, "src", "gdclab")
    if not os.path.samefile(os.path.dirname(gdclab.__file__), src):
        raise SystemExit(f"gdclab imported from {gdclab.__file__}, not {src}")


class Digest:
    """A running SHA-256; ``streams`` is the digest that container bytes
    go to instead."""

    def __init__(self, streams=None):
        self.h = hashlib.sha256()
        self.streams = streams

    def add(self, label, value):
        import numpy as np
        self.h.update(label.encode())
        if value is None:
            self.h.update(b"<none>")
        elif isinstance(value, bytes):
            self.h.update(value)
        elif isinstance(value, np.ndarray):
            self.h.update(f"{value.dtype}{value.shape}".encode())
            self.h.update(np.ascontiguousarray(value).tobytes())
        else:
            self.h.update(repr(value).encode())

    def hex(self):
        return self.h.hexdigest()


def code_case(d, label, coder, x, xt, qt_lambda=None):
    """Encode, serialize, parse and decode one pair; hash everything."""
    from gdclab import fileio as F
    container, enc = coder.encode(x, xt, qt_lambda=qt_lambda)
    data = container.to_bytes()
    dec = coder.decode(xt, F.BitstreamContainer.from_bytes(data))
    d.streams.add(label + "/bytes", data)
    d.add(label + "/est", (container.payload_y.est_bits, container.payload_z.est_bits))
    for side, out in (("enc", enc), ("dec", dec)):
        for attr in ("x_hat_d", "x_hat_g", "x_hat_merged"):
            t = getattr(out, attr)
            d.add(f"{label}/{side}/{attr}", None if t is None else t.data)


def desk(d):
    import numpy as np
    from gdclab import coders as CD
    for dtype in (np.float32, np.float64):
        for h, w in ((32, 32), (70, 100)):
            rng = np.random.default_rng(h * w)
            x = rng.uniform(0.1, 0.9, size=(1, 3, h, w)).astype(dtype)
            xt = np.clip(x + rng.normal(scale=0.04, size=x.shape), 0, 1).astype(dtype)
            for kind in CD.KINDS:
                coder = CD.Coder.new(CD.CoderConfig.desk(kind), seed=5, dtype=dtype)
                label = f"{np.dtype(dtype).name}/{h}x{w}/{kind}"
                code_case(d, label, coder, x, xt)
                if kind == "xgdc":
                    for lam in (50.0, 400.0):
                        code_case(d, f"{label}/qt{lam:g}", coder, x, xt, qt_lambda=lam)


def _fixture(root, kind):
    from gdclab import coders as CD
    from gdclab import fileio as F
    path = os.path.join(root, "bench", "fixtures", f"{kind}.ckpt")
    cfg = F.ExperimentConfig.from_file(path + ".cfg").coder_config()
    return CD.Coder.from_arrays(cfg, F.load_checkpoint(path))


def fixture(d, root, sizes=((128, 128), (72, 120)), kinds=("diff", "xgdc")):
    import numpy as np
    import inputs
    for kind in kinds:
        coder = _fixture(root, kind)
        for h, w in sizes:
            x, xt = inputs.coding_pair(np.random.default_rng(h + w), h, w)
            code_case(d, f"{kind}/{h}x{w}", coder, x, xt)
            if kind == "xgdc":
                code_case(d, f"{kind}/{h}x{w}/qt300", coder, x, xt, qt_lambda=300.0)


def gdc(d):
    import numpy as np
    from gdclab import coders as CD
    rng = np.random.default_rng(11)
    x = rng.uniform(0.1, 0.9, size=(1, 3, 32, 48)).astype(np.float32)
    xt = np.clip(x + rng.normal(scale=0.05, size=x.shape), 0, 1).astype(np.float32)
    diff = CD.Coder.new(CD.CoderConfig.desk("diff"), seed=6)
    code_case(d, "diff", diff, x, xt)
    coder = CD.gdc_from_diff(diff)
    code_case(d, "gdc", coder, x, xt)
    for name, t in coder.params.items():
        d.add("param/" + name, t.data)


def load(d):
    from gdclab import coders as CD
    from gdclab import fileio as F
    coders = {kind: CD.Coder.new(CD.CoderConfig.desk(kind), seed=7) for kind in CD.KINDS}
    coders["gdc_from_diff"] = CD.gdc_from_diff(coders["diff"])
    for label, coder in coders.items():
        blob = F.checkpoint_bytes(coder.params.arrays())
        d.add(label + "/checkpoint", blob)
        loaded = CD.Coder.from_arrays(coder.cfg, F.parse_checkpoint(blob))
        for name, a in loaded.params.arrays().items():
            d.add(f"{label}/{name}", a)


def training(d):
    import numpy as np
    from gdclab import coders as CD
    from gdclab import training as TR
    pairs = TR.make_corpus(np.random.default_rng(3), 6, patch=32)
    for i, (x, xt) in enumerate(pairs):
        d.add(f"pair{i}/x", x)
        d.add(f"pair{i}/xt", xt)
    for kind in ("diff", "xgdc"):
        coder = CD.Coder.new(CD.CoderConfig.desk(kind), seed=5)
        cfg = TR.TrainConfig(lmbda=512.0, lr=1e-3, steps=len(pairs), seed=9)
        for epoch in range(2):
            stats, _ = TR.train_epoch(coder, pairs, cfg)
            d.add(f"{kind}/train{epoch}", vars(stats))
        ev = TR.evaluate_pairs(coder, pairs, 512.0)
        d.add(f"{kind}/eval", vars(ev))
        for name, t in coder.params.items():
            d.add(f"{kind}/param/{name}", t.data)


def infolab(d):
    import numpy as np
    from gdclab import infolab as IL
    rng = np.random.default_rng(7)
    for case in range(30):
        if case % 3 == 0:
            j = IL.random_joint(rng, 5, 4)
        elif case % 3 == 1:
            j = IL.additive_noise_joint(rng, 5, 2)
        else:
            j = IL.perfect_prediction_joint(rng, 4)
        d.add(f"{case}/pmf", j.pmf)
        d.add(f"{case}/identity", IL.verify_main_identity(j))
        f = IL.random_map(rng, j.alphabet_xt, codomain_size=2)
        d.add(f"{case}/bottleneck", IL.bottleneck_report(j, f))


def _grad_case(d, label, op, arrays, names, rng, fold_zeros=False):
    """Hash op's output and the gradients of sum(out * r) for a seeded r,
    one gradient per input array under the matching name."""
    from gdclab import tensor as T
    leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
    out = op(*leaves)
    r = T.Tensor(rng.normal(size=out.shape).astype(arrays[0].dtype))
    T.backward(T.sum_all(T.mul(out, r)))
    pairs = [("out", out.data)] + [(n, t.grad) for n, t in zip(names, leaves)]
    for name, a in pairs:
        d.add(f"{label}/{name}", a + 0.0 if fold_zeros else a)


def _layer_case(d, label, op, x, w, b, rng, fold_zeros=False):
    _grad_case(d, label, op, (x, w, b), ("dx", "dw", "db"), rng, fold_zeros)


def layers(d):
    import numpy as np
    from gdclab import layers as L
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(12)
        name = np.dtype(dtype).name

        def draw(*shape, dtype=dtype):
            return rng.normal(size=shape).astype(dtype)

        for k in (1, 3, 5):
            for stride in (1, 2, 3):
                for h, w in ((7, 9), (4, 5)):
                    x = draw(2, 3, h, w)
                    _layer_case(d, f"{name}/conv/k{k}/s{stride}/{h}x{w}",
                                lambda a, b, c, s=stride: L.conv2d(a, b, bias=c, stride=s),
                                x, draw(4, 3, k, k), draw(1, 4, 1, 1), rng)
                    _layer_case(d, f"{name}/tconv/k{k}/s{stride}/{h}x{w}",
                                lambda a, b, c, s=stride: L.tconv2d(a, b, bias=c, stride=s),
                                x, draw(3, 4, k, k), draw(1, 4, 1, 1), rng)
            for kind in ("A", "B"):
                _layer_case(d, f"{name}/masked{kind}/k{k}",
                            lambda a, b, c, m=kind: L.masked_conv2d(a, b, bias=c, kind=m),
                            draw(2, 3, 7, 9), draw(4, 3, k, k), draw(1, 4, 1, 1), rng,
                            fold_zeros=True)
        for cout in (32, 3):
            _layer_case(d, f"{name}/tconv/hd32to{cout}",
                        lambda a, b, c: L.tconv2d(a, b, bias=c, stride=2),
                        draw(1, 32, 17, 23), draw(32, cout, 5, 5), draw(1, cout, 1, 1), rng)
        _layer_case(d, f"{name}/conv/bands32to32",
                    lambda a, b, c: L.conv2d(a, b, bias=c, stride=1),
                    draw(1, 32, 136, 240), draw(32, 32, 5, 5), draw(1, 32, 1, 1), rng)
        _layer_case(d, f"{name}/tconv/bands32to32",
                    lambda a, b, c: L.tconv2d(a, b, bias=c, stride=2),
                    draw(1, 32, 136, 240), draw(32, 32, 5, 5), draw(1, 32, 1, 1), rng)
        _layer_case(d, f"{name}/tconv/k7/s4",
                    lambda a, b, c: L.tconv2d(a, b, bias=c, stride=4),
                    draw(2, 3, 5, 6), draw(3, 4, 7, 7), draw(1, 4, 1, 1), rng)


def tensor(d):
    import numpy as np
    from gdclab import entropy as E
    from gdclab import layers as L
    from gdclab import tensor as T
    shape = (2, 3, 5, 6)
    ops = {
        "add": (T.add, 2), "sub": (T.sub, 2), "mul": (T.mul, 2),
        "mul_xx": (lambda a: T.mul(a, a), 1),
        "scale": (lambda a: T.scale(a, -0.7), 1),
        "concat": (lambda a, b, c: T.concat_channels([a, b, c]), 3),
        "concat_aba": (lambda a, b: T.concat_channels([a, b, a]), 2),
        # three shares into one input pin the order of accumulation
        "concat_aaa": (lambda a: T.concat_channels([a, a, a]), 1),
        "slice": (lambda a: T.slice_channels(a, 1, 3), 1),
        "crop": (lambda a: T.crop_spatial(a, 1, 4, 2, 6), 1),
        "sum": (T.sum_all, 1), "mean": (T.mean_all, 1),
        "prelu": (L.prelu, 2),
        "gdn": (L.gdn, 3),
        "igdn": (lambda a, b, g: L.gdn(a, b, g, inverse=True), 3),
        "quantize": (lambda a: E.quantize(a, "noise", np.random.default_rng(4)), 1),
    }
    # per-op input shapes where the op needs its own
    shapes = {"prelu": (shape, (1, 3, 1, 1)),
              "gdn": (shape, (1, 3, 1, 1), (3, 3, 1, 1)),
              "igdn": (shape, (1, 3, 1, 1), (3, 3, 1, 1))}
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(13)
        name = np.dtype(dtype).name
        for op_name, (op, arity) in ops.items():
            # positive inputs keep gdn defined; ops defined for any sign get
            # a first input that crosses zero
            arrays = [rng.uniform(0.2, 2.0, size=s).astype(dtype)
                      for s in shapes.get(op_name, (shape,) * arity)]
            if op_name in ("sub", "mul", "prelu", "quantize"):
                arrays[0] = (arrays[0] - 1.1).astype(dtype)
            _grad_case(d, f"{name}/{op_name}", op, arrays,
                       [f"d{i}" for i in range(len(arrays))], rng)


def nets(d):
    import numpy as np
    from gdclab import layers as L
    from gdclab import tensor as T
    specs = {"gd": L.feature_spec(6, 16, 5, "gd"), "gs": L.feature_spec(22, 3, 5, "gs"),
             "hyp_enc": L.hyper_encoder_spec(8, 12, 6),
             "enc": L.encoder_spec(3, 8, 6, strides=(2, 2)),
             "dec": L.decoder_spec(6, 8, 3, kernel=3, strides=(2, 2))}
    cells = L.BAND_CELLS
    try:
        for band in (cells, 2000):
            L.BAND_CELLS = band
            for dtype in (np.float32, np.float64):
                for name, spec in specs.items():
                    rng = np.random.default_rng(14)
                    params = L.ParamStore(dtype)
                    net = L.make_network(spec, params, name, rng=rng)
                    for pname, t in params.items():
                        if pname.endswith((".b", ".slope")):
                            t.data[...] = rng.normal(scale=0.5, size=t.shape)
                    x = rng.normal(size=(2, spec.layers[0].in_ch, 37, 29)).astype(dtype)
                    with T.no_grad():
                        out = net(T.Tensor(x))
                    label = f"{band}/{np.dtype(dtype).name}/{name}"
                    d.add(label + "/out", out.data)
                    d.add(label + "/x", x)
    finally:
        L.BAND_CELLS = cells


def rate(d):
    import numpy as np
    from gdclab import coders as CD
    from gdclab import tensor as T
    for dtype in (np.float32, np.float64):
        for h, w in ((32, 32), (48, 80)):
            rng = np.random.default_rng(h + w)
            x = rng.uniform(0.1, 0.9, size=(1, 3, h, w))
            xt = np.clip(x + rng.normal(scale=0.04, size=x.shape), 0, 1)
            for kind in CD.KINDS:
                coder = CD.Coder.new(CD.CoderConfig.desk(kind), seed=5, dtype=dtype)
                xs = [T.Tensor(a.astype(dtype), requires_grad=True) for a in (x, xt)]
                out = coder.forward(*xs, mode="noise", rng=np.random.default_rng(6))
                T.backward(out.total_rate())
                label = f"{np.dtype(dtype).name}/{h}x{w}/{kind}"
                d.add(label + "/rate_y", out.rate_y.data)
                d.add(label + "/rate_z", out.rate_z.data)
                d.add(label + "/dx", xs[0].grad)
                d.add(label + "/dxt", xs[1].grad)
                for name, t in coder.params.items():
                    d.add(f"{label}/d/{name}", t.grad)


def quadtree(d):
    import numpy as np
    from gdclab import evaluation as EV
    for dtype in (np.float32, np.float64):
        name = np.dtype(dtype).name
        for h, w in ((16, 16), (8, 16), (48, 32)):
            rng = np.random.default_rng(h * w)
            x = rng.uniform(size=(1, 3, h, w))
            # a noise level per 4x4 block, spread over two decades, so that
            # the tree changes with lambda and each candidate wins somewhere
            cd, cg = (x + rng.normal(size=x.shape)
                      * (10 ** rng.uniform(-3, -1, size=(1, 1, h // 4, w // 4)))
                      .repeat(4, 2).repeat(4, 3)
                      for _ in range(2))
            # a quarter of the blocks tie, to pin both tie rules
            tie = (rng.uniform(size=(1, 1, h // 4, w // 4)) < 0.25).repeat(4, 2).repeat(4, 3)
            cg = np.where(tie, cd, cg)
            x, cd, cg = (a.astype(dtype) for a in (x, cd, cg))
            for lo in (4, 8):
                for hi in (8, 16, 256):
                    for lam in (0.0, 1.0, 50.0, 300.0, 2000.0):
                        res = EV.quadtree_search(x, cd, cg, lam, min_block=lo, max_block=hi)
                        label = f"{name}/{h}x{w}/{lo}-{hi}/lam{lam:g}"
                        for attr in ("bits", "merged", "cost", "side_bits",
                                     "mode_d_fraction"):
                            d.add(f"{label}/{attr}", getattr(res, attr))


def _run_cli(d, label, argv, tmp=None):
    """Hash cli.main's exit status and printed text, with the temporary
    directory ``tmp`` written as <tmp>."""
    import contextlib
    import io
    from gdclab import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
    text = out.getvalue()
    d.add(label, (rc, text.replace(tmp, "<tmp>") if tmp else text))


def cli_group(d):
    import tempfile
    import numpy as np
    from gdclab import coders as CD
    from gdclab import fileio as F
    from gdclab import tensor as T
    os.environ["COLUMNS"] = "80"     # argparse wraps --help to the terminal
    for cmd in ("infolab", "train", "encode", "decode", "eval", "bdrate", "quadtree",
                "selftest"):
        _run_cli(d, f"help/{cmd}", [cmd, "--help"])
    _run_cli(d, "help", ["--help"])
    with tempfile.TemporaryDirectory() as tmp:
        def path(name):
            return os.path.join(tmp, name)

        def read(name):
            with open(path(name), "rb") as f:
                return f.read()

        _run_cli(d, "infolab", ["infolab", "--seed", "0", "--cases", "12", "--maps", "3",
                                "--out", path("infolab.csv")], tmp)
        d.add("infolab.csv", read("infolab.csv"))
        rng = np.random.default_rng(32)
        x = rng.uniform(0.1, 0.9, size=(1, 3, 32, 32)).astype(np.float32)
        xt = np.clip(x + rng.normal(scale=0.04, size=x.shape), 0, 1).astype(np.float32)
        F.write_image(path("x.ppm"), T.Tensor(x))
        F.write_image(path("xt.ppm"), T.Tensor(xt))
        for kind in CD.KINDS:
            ecfg = F.ExperimentConfig(coder=kind, seed=5, **CD.DESK_DIMS)
            coder = CD.Coder.new(ecfg.coder_config(), seed=5)
            model = path(f"{kind}.ckpt")
            F.save_checkpoint(model, coder.params.arrays())
            ecfg.save(model + ".cfg")
            for qt in ([], ["--qt-lambda", "50"]) if kind == "xgdc" else ([],):
                label = kind + ("/qt50" if qt else "")
                _run_cli(d.streams, label + "/encode",
                         ["encode", "--model", model, "--frame", path("x.ppm"),
                          "--pred", path("xt.ppm"), "--out", path("s.gdc"),
                          "--recon", path("enc.ppm")] + qt, tmp)
                d.streams.add(label + "/stream", read("s.gdc"))
                d.add(label + "/enc.ppm", read("enc.ppm"))
                for mode in ("auto", "d", "g", "merged"):
                    _run_cli(d, f"{label}/decode/{mode}",
                             ["decode", "--model", model, "--pred", path("xt.ppm"),
                              "--stream", path("s.gdc"), "--out", path(mode + ".ppm"),
                              "--mode", mode], tmp)
                    if os.path.exists(path(mode + ".ppm")):
                        d.add(f"{label}/decode/{mode}.ppm", read(mode + ".ppm"))
                        os.remove(path(mode + ".ppm"))
        _run_cli(d.streams, "eval", ["eval", "--model", path("diff.ckpt"), "--frames", "2",
                                     "--out", path("eval.csv")], tmp)
        d.streams.add("eval.csv", read("eval.csv"))


def main(argv):
    if not argv or len(argv) > 2 or (len(argv) == 2 and argv[1] != "hd"):
        raise SystemExit(__doc__.split("\n\n")[1])
    root = os.path.abspath(argv[0])
    _setup(root)
    groups = [("desk", desk), ("fixture", lambda d: fixture(d, root)),
              ("gdc", gdc), ("load", load), ("training", training), ("infolab", infolab),
              ("layers", layers), ("tensor", tensor), ("nets", nets), ("rate", rate),
              ("quadtree", quadtree), ("cli", cli_group)]
    if len(argv) == 2:
        groups.append(("hd", lambda d: fixture(d, root, ((1088, 1920),), ("diff",))))
    total, streams = Digest(), Digest()
    for name, fn in groups:
        d = Digest(streams)
        fn(d)
        total.add(name, d.hex())
        print(f"{name:9s} {d.hex()}", flush=True)
    total.add("streams", streams.hex())
    print(f"{'streams':9s} {streams.hex()}")
    print(f"{'total':9s} {total.hex()}")


if __name__ == "__main__":
    main(sys.argv[1:])
