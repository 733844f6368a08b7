"""Command-line checks: every subcommand drives the real pipeline on tiny
inputs, writes its artifacts, and returns the documented exit codes (0 for
success, 1 for domain errors, 2 for argparse rejections)."""

import csv
import dataclasses
import json
import os
import shutil
import struct
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import gdclab.tensor as T
from gdclab import cli
from gdclab import coders as CD
from gdclab import fileio as F
from gdclab import training as TR
from gdclab.errors import StreamError


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def diff_model(workdir):
    out = workdir / "diff.ckpt"
    rc = cli.main(["train", "--coder", "diff", "--preset", "desk",
                   "--steps", "2", "--pairs", "2", "--patch", "32",
                   "--seed", "1", "--out", str(out),
                   "--log", str(workdir / "train_log.csv")])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def frames(workdir):
    rng = np.random.default_rng(11)
    x = rng.uniform(0.2, 0.8, size=(1, 3, 24, 24)).astype(np.float32)
    xt = np.clip(x + rng.normal(scale=0.04, size=x.shape), 0, 1)
    fx = workdir / "frame.ppm"
    fp = workdir / "pred.ppm"
    F.write_image(fx, T.Tensor(x))
    F.write_image(fp, T.Tensor(xt.astype(np.float32)))
    return fx, fp


@pytest.fixture(scope="module")
def encoded(workdir, diff_model, frames):
    fx, fp = frames
    stream = workdir / "frame.gdc"
    recon = workdir / "recon_enc.ppm"
    rc = cli.main(["encode", "--model", str(diff_model), "--frame", str(fx),
                   "--pred", str(fp), "--out", str(stream),
                   "--recon", str(recon)])
    assert rc == 0
    return stream, recon


@pytest.fixture(scope="module")
def image_dir(workdir):
    rng = np.random.default_rng(13)
    d = workdir / "images"
    d.mkdir()
    for i in range(2):
        F.write_image(d / f"img{i}.ppm", T.Tensor(TR.synthetic_image(rng, 64, 64)))
    return d


class TestParser:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_decode_takes_no_frame(self):
        # the decoder works from prediction plus stream alone
        with pytest.raises(SystemExit) as exc:
            cli.main(["decode", "--model", "m", "--pred", "p",
                      "--stream", "s", "--out", "o", "--frame", "x"])
        assert exc.value.code == 2

    def test_domain_errors_exit_one(self, workdir, capsys):
        assert cli.main(["bdrate", str(workdir / "gone.csv"),
                         str(workdir / "gone.csv")]) == 1
        assert cli.main(["encode", "--model", str(workdir / "gone.ckpt"),
                         "--frame", "a", "--pred", "b", "--out", "c"]) == 1
        assert "error:" in capsys.readouterr().err


class TestInfolab:
    def test_report_csv(self, workdir, capsys):
        out = workdir / "il.csv"
        rc = cli.main(["infolab", "--cases", "3", "--maps", "2",
                       "--seed", "0", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0][:3] == ["case", "generator", "map"]
        assert len(rows[0]) == 16
        assert len(rows) == 1 + 3 * (1 + 2)
        assert all(r[-1] == "True" for r in rows[1:])
        assert "verified" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--cases", "-1"),
                                            ("--maps", "-2")])
    def test_negative_argument_is_an_error(self, workdir, capsys, flag, value):
        # a negative seed used to end in numpy's traceback, a negative count
        # in a header-only report
        out = workdir / "il_negative.csv"
        argv = {"--seed": "0", "--cases": "3", "--maps": "2", flag: value}
        rc = cli.main(["infolab", *(a for kv in argv.items() for a in kv), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} must be at least")
        assert not out.exists()


class TestTrain:
    def test_checkpoint_sidecar_and_log(self, workdir, diff_model):
        assert diff_model.exists()
        ecfg = F.ExperimentConfig.from_file(str(diff_model) + ".cfg")
        assert ecfg.coder == "diff"
        assert (ecfg.core_width, ecfg.latent) == (32, 32)   # desk preset
        with open(workdir / "train_log.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["epoch", "steps", "loss", "bpp", "psnr", "mode_d"]
        assert len(rows) == 2 and rows[1][1] == "2"

    def test_staged_gdc_init(self, workdir, diff_model):
        out = workdir / "gdc.ckpt"
        rc = cli.main(["train", "--coder", "gdc", "--init-from",
                       str(diff_model), "--steps", "2", "--pairs", "2",
                       "--seed", "1", "--out", str(out)])
        assert rc == 0
        ecfg = F.ExperimentConfig.from_file(str(out) + ".cfg")
        assert ecfg.coder == "gdc"
        assert ecfg.core_width == 32   # architecture copied from the source

    def test_staged_init_demands_gdc(self, workdir, diff_model, capsys):
        rc = cli.main(["train", "--coder", "diff", "--init-from",
                       str(diff_model), "--steps", "1", "--pairs", "2",
                       "--out", str(workdir / "bad.ckpt")])
        assert rc == 1
        assert "gdc" in capsys.readouterr().err

    def test_staged_init_demands_diff_source(self, workdir, capsys):
        src = workdir / "codecnet.ckpt"
        coder = CD.Coder.new(CD.CoderConfig.desk("codecnet"), seed=0)
        F.save_checkpoint(src, coder.params.arrays())
        F.ExperimentConfig(coder="codecnet", **CD.DESK_DIMS).save(str(src) + ".cfg")
        rc = cli.main(["train", "--coder", "gdc", "--init-from", str(src),
                       "--steps", "1", "--pairs", "2",
                       "--out", str(workdir / "bad_src.ckpt")])
        assert rc == 1
        assert "difference kind" in capsys.readouterr().err
        assert not (workdir / "bad_src.ckpt").exists()

    def test_data_directory(self, workdir, image_dir, capsys):
        out = workdir / "data.ckpt"
        rc = cli.main(["train", "--coder", "diff", "--preset", "desk",
                       "--steps", "2", "--pairs", "2", "--data", str(image_dir),
                       "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert F.ExperimentConfig.from_file(str(out) + ".cfg").steps == 2
        assert "degradation step" in capsys.readouterr().out

class TestEncodeDecode:
    def test_encode_reports_rate(self, encoded, capsys):
        stream, recon = encoded
        assert stream.exists() and recon.exists()
        container = F.load_container(stream)
        assert container.kind == "diff"
        assert (container.height, container.width) == (24, 24)

    def test_decode_matches_encoder_recon(self, workdir, diff_model,
                                          frames, encoded):
        stream, enc_recon = encoded
        out = workdir / "recon_dec.ppm"
        rc = cli.main(["decode", "--model", str(diff_model),
                       "--pred", str(frames[1]), "--stream", str(stream),
                       "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == enc_recon.read_bytes()

    def test_decode_missing_mode(self, workdir, diff_model, frames,
                                 encoded, capsys):
        rc = cli.main(["decode", "--model", str(diff_model),
                       "--pred", str(frames[1]), "--stream", str(encoded[0]),
                       "--out", str(workdir / "x.ppm"), "--mode", "merged"])
        assert rc == 1
        assert "merged" in capsys.readouterr().err

    def test_qt_lambda_rejected_for_diff(self, workdir, diff_model,
                                         frames, capsys):
        rc = cli.main(["encode", "--model", str(diff_model),
                       "--frame", str(frames[0]), "--pred", str(frames[1]),
                       "--out", str(workdir / "y.gdc"),
                       "--qt-lambda", "200"])
        assert rc == 1
        capsys.readouterr()

    def test_empty_frame_is_an_error(self, workdir, diff_model, capsys):
        empty = workdir / "empty.ppm"
        empty.write_bytes(b"P6\n0 0\n255\n")
        rc = cli.main(["encode", "--model", str(diff_model), "--frame", str(empty),
                       "--pred", str(empty), "--out", str(workdir / "empty.gdc")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("kind, qt_lambda, tag", [
    ("diff", None, "d"), ("codecnet", None, "g"), ("gdc", None, "g"),
    ("xgdc", None, "d"), ("xgdc", 100.0, "merged")])
def test_default_recon(kind, qt_lambda, tag):
    rng = np.random.default_rng(12)
    x = rng.uniform(0.2, 0.8, size=(1, 3, 32, 32)).astype(np.float32)
    xt = np.clip(x + rng.normal(scale=0.04, size=x.shape), 0, 1).astype(np.float32)
    coder = CD.Coder.new(CD.CoderConfig.desk(kind), seed=0)
    container, enc = coder.encode(x, xt, qt_lambda=qt_lambda)
    for out in (enc, coder.decode(xt, container)):
        recon, got = cli._default_recon(out)
        assert got == tag
        assert recon is getattr(out, f"x_hat_{tag}")


class TestEval:
    def test_csv_columns(self, workdir, diff_model, capsys):
        out = workdir / "eval.csv"
        rc = cli.main(["eval", "--model", str(diff_model),
                       "--frames", "2", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        for row in rows:
            assert row["coder"] == "diff"
            assert float(row["bpp"]) > 0.0
            assert row["psnr_d"] != "" and row["psnr_g"] == ""
            assert row["mode_d_fraction"] == ""
        assert "mean" in capsys.readouterr().out

    def test_no_frames_is_an_error(self, workdir, diff_model, capsys):
        # a mean over no frames is nan; the command says so instead
        out = workdir / "eval_none.csv"
        rc = cli.main(["eval", "--model", str(diff_model), "--frames", "0", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_negative_seed_is_an_error(self, workdir, diff_model, capsys):
        out = workdir / "eval_seed.csv"
        rc = cli.main(["eval", "--model", str(diff_model), "--seed", "-1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: --seed must be at least 0")
        assert not out.exists()

    def test_xgdc_mode_d_fraction(self, workdir):
        # the quad-tree column holds the fraction of the frame coded in mode d
        model = workdir / "xgdc.ckpt"
        assert cli.main(["train", "--coder", "xgdc", "--preset", "desk", "--steps", "1",
                         "--pairs", "1", "--patch", "32", "--seed", "1",
                         "--out", str(model)]) == 0
        out = workdir / "eval_xgdc.csv"
        assert cli.main(["eval", "--model", str(model), "--frames", "2",
                         "--out", str(out)]) == 0
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert all(0.0 <= float(row["mode_d_fraction"]) <= 1.0 for row in rows)

    def test_data_directory(self, workdir, diff_model, image_dir):
        out = workdir / "eval_data.csv"
        rc = cli.main(["eval", "--model", str(diff_model), "--data", str(image_dir),
                       "--frames", "2", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert all(float(row["bpp"]) > 0.0 for row in rows)

    def test_bad_sidecar_value(self, workdir, diff_model, capsys):
        # a sidecar is checked when it loads: lambda nan never reaches a row
        bad = workdir / "nan_lambda.ckpt"
        bad.write_bytes(diff_model.read_bytes())
        text = (workdir / "diff.ckpt.cfg").read_text()
        lines = ["lmbda = nan" if line.startswith("lmbda =") else line
                 for line in text.splitlines()]
        (workdir / "nan_lambda.ckpt.cfg").write_text("\n".join(lines) + "\n")
        out = workdir / "nan_lambda.csv"
        rc = cli.main(["eval", "--model", str(bad), "--frames", "1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_entry_name_not_utf8(self, workdir, diff_model, capsys):
        # a checkpoint whose one entry is named b"\xff" is a domain error
        bad = workdir / "bad_name.ckpt"
        blob = F.CHECKPOINT_MAGIC + struct.pack("<II", 1, 1) + struct.pack("<H", 1) + b"\xff"
        blob += struct.pack("<BB", 0, 4) + struct.pack("<4I", 1, 1, 1, 1) + b"\x00" * 4
        bad.write_bytes(blob)
        (workdir / "bad_name.ckpt.cfg").write_bytes((workdir / "diff.ckpt.cfg").read_bytes())
        rc = cli.main(["eval", "--model", str(bad), "--frames", "1",
                       "--out", str(workdir / "bad.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestBdrate:
    def _curve(self, path, scale=1.0):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["bpp", "psnr"])
            for b, p in [(0.1, 30.0), (0.2, 33.0), (0.4, 36.0), (0.8, 39.0)]:
                w.writerow([b * scale, p])
        return path

    def test_identical_and_halved(self, workdir, capsys):
        ref = self._curve(workdir / "ref.csv")
        half = self._curve(workdir / "half.csv", scale=0.5)
        assert cli.main(["bdrate", str(ref), str(ref)]) == 0
        assert capsys.readouterr().out.strip() == "0.0%"
        assert cli.main(["bdrate", str(ref), str(half)]) == 0
        assert capsys.readouterr().out.strip() == "-50.0%"

    def test_module_entry_point(self, workdir):
        ref = self._curve(workdir / "ep.csv")
        proc = subprocess.run(
            [sys.executable, "-m", "gdclab", "bdrate", str(ref), str(ref)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.0%"


ENTRY_CHILD = """
import ctypes, glob, json, os, runpy, sys
import gdclab
lazy = "numpy" not in sys.modules
sys.argv = ["gdclab", "--help"]
try:
    runpy.run_module("gdclab", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
import numpy as np
threads = None
for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), name, None)
        if fn is not None and threads is None:
            threads = fn()
print(json.dumps([lazy, os.environ.get("OPENBLAS_NUM_THREADS"),
                  os.environ.get("OMP_NUM_THREADS"), threads]))
"""


@pytest.mark.parametrize("given,want", [(None, "1"), ("2", "2")])
def test_command_runs_blas_on_one_thread(given, want):
    # the entry of ``python -m gdclab`` and of the console script sets
    # OpenBLAS and OpenMP to one thread before numpy loads, unless the
    # caller set them; importing the package loads no numpy
    root = Path(__file__).resolve().parents[1]
    assert 'gdclab = "gdclab.__main__:main"' in (root / "pyproject.toml").read_text()
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if given:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = given
    proc = subprocess.run([sys.executable, "-c", ENTRY_CHILD], capture_output=True, text=True,
                          env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lazy, openblas, omp, threads = json.loads(proc.stdout.splitlines()[-1])
    assert lazy and openblas == omp == want
    assert threads in (None, int(want))


def test_package_import_loads_no_numpy():
    # the command pins the BLAS thread count after ``import gdclab`` and
    # before numpy loads, so the package's __init__ imports nothing more
    code = ("import sys, gdclab\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('gdclab', 'numpy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.strip() == "['gdclab']"


class TestQuadtree:
    def test_mode_search_outputs(self, workdir, capsys):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.2, 0.8, size=(1, 3, 16, 16)).astype(np.float32)
        g = np.clip(x + rng.normal(scale=0.1, size=x.shape), 0, 1)
        fx = workdir / "qt_frame.ppm"
        fd = workdir / "qt_d.ppm"
        fg = workdir / "qt_g.ppm"
        F.write_image(fx, T.Tensor(x))
        F.write_image(fd, T.Tensor(x))   # candidate d reproduces the frame
        F.write_image(fg, T.Tensor(g.astype(np.float32)))
        leaves = workdir / "qt_leaves.csv"
        merged = workdir / "qt_merged.ppm"
        rc = cli.main(["quadtree", "--frame", str(fx), "--cand-d", str(fd),
                       "--cand-g", str(fg), "--lambda", "100",
                       "--min-block", "4", "--max-block", "16",
                       "--out", str(leaves), "--merged", str(merged)])
        assert rc == 0
        assert "mode-d fraction 1.000" in capsys.readouterr().out
        with open(leaves, newline="") as f:
            rows = list(csv.DictReader(f))
        assert all(r["mode"] == "d" for r in rows)
        assert merged.read_bytes() == fd.read_bytes()

    @pytest.mark.parametrize("min_block", ["0", "-4"])
    def test_bad_min_block(self, workdir, min_block, capsys):
        # the block range is checked before min_block sets the padding of
        # this 18x18 frame
        fx = workdir / "qt_odd.ppm"
        F.write_image(fx, T.Tensor(np.full((1, 3, 18, 18), 0.5, dtype=np.float32)))
        rc = cli.main(["quadtree", "--frame", str(fx), "--cand-d", str(fx),
                       "--cand-g", str(fx), "--lambda", "100",
                       "--min-block", min_block])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


def _golden_cases():
    return json.loads((cli.GOLDEN / "manifest.json").read_text(encoding="utf-8"))


class TestSelftest:
    def test_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        want = [f"ok {case['name']}" for case in _golden_cases()] + ["selftest passed"]
        assert capsys.readouterr().out.splitlines() == want

    def test_a_flipped_y_payload_byte_fails_its_case(self, capsys, monkeypatch, tmp_path):
        golden = tmp_path / "golden"
        shutil.copytree(cli.GOLDEN, golden)
        path = golden / "gdc.gdc"
        data = bytearray(path.read_bytes())
        stream = F.BitstreamContainer.from_bytes(bytes(data)).payload_y.stream
        data[data.index(stream) + len(stream) // 2] ^= 0x5A
        path.write_bytes(bytes(data))
        monkeypatch.setattr(cli, "GOLDEN", golden)
        assert cli.main(["selftest"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == ["ok diff", "ok codecnet", "selftest failed: gdc"]

    def test_a_raising_decode_fails_by_name(self, capsys, monkeypatch):
        # a package error inside a case fails that case by name
        def decode_gaussian(*args, **kwargs):
            raise StreamError("stream ended early")

        monkeypatch.setattr("gdclab.entropy.decode_gaussian", decode_gaussian)
        assert cli.main(["selftest"]) == 1
        assert capsys.readouterr().out.splitlines() == ["selftest failed: diff"]

    def test_an_altered_table_hash_fails_as_tables(self, capsys, monkeypatch, tmp_path):
        # a host that builds other coder tables fails by name, before its
        # case decodes
        golden = tmp_path / "golden"
        shutil.copytree(cli.GOLDEN, golden)
        cases = _golden_cases()
        cases[1]["tables"]["y"] = "0" * 64
        (golden / "manifest.json").write_text(json.dumps(cases), encoding="utf-8")
        monkeypatch.setattr(cli, "GOLDEN", golden)
        decode, decoded = CD.Coder.decode, []
        monkeypatch.setattr(CD.Coder, "decode",
                            lambda self, *args: decoded.append(self) or decode(self, *args))
        assert cli.main(["selftest"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == ["ok diff", "selftest failed: codecnet (tables)"]
        assert len(decoded) == 1

    def test_inputs_drawn_otherwise_fail_before_decoding(self, capsys, monkeypatch):
        # a host whose numpy draws other weights fails on its inputs
        new, decoded = CD.Coder.new, []
        monkeypatch.setattr(CD.Coder, "new", classmethod(
            lambda cls, cfg, seed=0, dtype=np.float32: new(cfg, seed=seed + 1, dtype=dtype)))
        monkeypatch.setattr(CD.Coder, "decode", lambda self, *args: decoded.append(args))
        assert cli.main(["selftest"]) == 1
        assert capsys.readouterr().out.splitlines() == ["selftest failed: diff"]
        assert decoded == []


NO_SCIPY_CHILD = """
import importlib, pkgutil, sys
import gdclab
for mod in pkgutil.iter_modules(gdclab.__path__):
    importlib.import_module("gdclab." + mod.name)
from gdclab import cli
rc = cli.main(["selftest"])
print(rc, sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_run_time_loads_no_scipy():
    # every module, cli included, and a selftest run in a fresh process
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_CHILD], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.splitlines()[-2:] == ["selftest passed", "0 []"]


def test_golden_set_is_package_data():
    # every file the manifest names ships with the package, and the inputs
    # rebuild as recorded
    golden = resources.files("gdclab") / "golden"
    cases = json.loads((golden / "manifest.json").read_text(encoding="utf-8"))
    assert [case["name"] for case in cases] == ["diff", "codecnet", "gdc", "xgdc", "xgdc-qt"]
    for case in cases:
        container = F.BitstreamContainer.from_bytes((golden / case["file"]).read_bytes())
        assert container.kind == case["kind"]
        assert (container.qt_bits is not None) == (case["qt_lambda"] is not None)
        assert cli.golden_inputs(case)[3] == case["inputs"]
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert '[tool.setuptools.package-data]\ngdclab = ["golden/*"]\n' in pyproject


def _curve_argv(name, tail):
    """bdrate on a curve file of three good rows and then ``tail``."""
    def build(workdir, **_):
        path = workdir / f"{name}.csv"
        path.write_bytes(b"bpp,psnr\n0.1,30\n0.2,33\n0.4,36\n" + tail)
        return ["bdrate", str(path), str(path)]
    return build


def _eval_lambda_argv(value):
    """eval on the diff model with ``--lambda value``."""
    def build(workdir, diff_model, **_):
        return ["eval", "--model", str(diff_model), "--frames", "1", "--lambda", value,
                "--out", str(workdir / "flag_lambda.csv")]
    return build


def _side_bits_argv(workdir, diff_model, frames, encoded):
    # the 24x24 frame pads to 32x32 at stride product 16: sixteen unsplit
    # 8x8 roots, each a split flag and a mode bit, fit that tree exactly
    stream = workdir / "side_bits.gdc"
    container = dataclasses.replace(F.load_container(encoded[0]), qt_bits=[0, 0] * 16,
                                    qt_min_block=4, qt_max_block=8)
    F.save_container(stream, container)
    return ["decode", "--model", str(diff_model), "--pred", str(frames[1]),
            "--stream", str(stream), "--out", str(workdir / "side_bits.ppm")]


def _sidecar_argv(workdir, diff_model, **_):
    model = workdir / "latin1.ckpt"
    model.write_bytes(diff_model.read_bytes())
    sidecar = (workdir / "diff.ckpt.cfg").read_bytes()
    (workdir / "latin1.ckpt.cfg").write_bytes(sidecar + b"# caf\xe9\n")
    return ["eval", "--model", str(model), "--frames", "1",
            "--out", str(workdir / "latin1.csv")]


@pytest.mark.parametrize("build", [
    _side_bits_argv,
    _curve_argv("text_cell", b"0.8,high\n"),
    _curve_argv("short_row", b"0.8\n"),
    _curve_argv("latin1", b"0.8,39 # caf\xe9\n"),
    _curve_argv("inf_point", b"0.8,inf\n"),
    _sidecar_argv,
    _eval_lambda_argv("nan"),
    _eval_lambda_argv("-3"),
], ids=["side_bits", "text_cell", "short_row", "csv_not_utf8", "inf_point",
        "sidecar_not_utf8", "eval_lambda_nan", "eval_lambda_negative"])
def test_malformed_input_is_an_error_line(build, workdir, diff_model, frames, encoded):
    argv = build(workdir, diff_model=diff_model, frames=frames, encoded=encoded)
    proc = subprocess.run([sys.executable, "-m", "gdclab", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert "Traceback" not in proc.stderr
    assert lines and lines[-1].startswith("error:")
    assert sum(line.startswith("error:") for line in lines) == 1
