"""The exact grid behind the coder's entropy parameters.

The hyper decoder and the context net run in float64 on power-of-two grids
(layers.Network.grid), so their outputs cannot depend on how a BLAS kernel
orders a sum.  These tests bound the grid's partial sums, check that band
splits, batch shapes and the context cells give the same bits, and decode
containers under several OpenBLAS kernels and numpy SIMD levels in child
processes.
"""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from gdclab import coders as C
from gdclab import entropy as E
from gdclab import fileio as F
from gdclab import layers as L
from gdclab.errors import ContractError

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "bench" / "fixtures"


def _fixture(kind):
    path = FIXTURES / f"{kind}.ckpt"
    cfg = F.ExperimentConfig.from_file(str(path) + ".cfg").coder_config()
    return C.Coder.from_arrays(cfg, F.load_checkpoint(path))


def _grid_coders():
    coders = {f"fixture-{k}": _fixture(k) for k in ("diff", "xgdc")}
    for kind in C.KINDS:
        for seed in range(3):
            coders[f"desk-{kind}-{seed}"] = C.Coder.new(C.CoderConfig.desk(kind), seed=seed)
    return coders


def worst_partial_sum(net, input_bound):
    """The largest magnitude, in steps of the 2^-20 product grid, that any
    partial sum of any layer of ``net`` can reach on the grid when its input
    stays within +-input_bound: each layer's bound is the sum of |weight|
    over every input channel and tap, times the bound of its input, plus
    |bias|; rounding to the activation grid adds at most 2^-9 and PReLU
    scales by its largest |slope| above 1."""
    wb, ab = L.GRID_WEIGHT_BITS, L.GRID_ACT_BITS
    bound, worst = float(input_bound), 0.0
    for i, lay in enumerate(net.spec.layers):
        w = np.abs(L.to_grid(net._p(i, "w").data, wb))
        b = np.abs(L.to_grid(net._p(i, "b").data, wb + ab)).reshape(-1)
        sums = w.sum(axis=(0 if lay.transposed else 1, 2, 3)) * bound + b
        worst = max(worst, float(sums.max()))
        bound = float(sums.max()) + 2.0 ** -(ab + 1)
        if lay.activation == "prelu":
            slope = np.abs(L.to_grid(net._p(i, "slope").data, wb)).max()
            bound = bound * max(1.0, float(slope)) + 2.0 ** -(ab + 1)
    return worst * 2.0 ** (wb + ab)


def test_partial_sums_stay_below_2_to_the_53():
    # the committed fixtures and desk coders of every kind: the hyper
    # decoder and the context net read z_hat clamped to +-Z_CLAMP
    worst = {name: max(worst_partial_sum(coder.nets[net], E.Z_CLAMP)
                       for net in ("hyp_dec", "ctx"))
             for name, coder in _grid_coders().items()}
    assert max(worst.values()) < 2.0 ** 53, worst


def test_grid_values_and_rounding():
    assert L.to_grid([0.3, -1.5 / 256, 2.5 / 256, 7.0], 8).tolist() == [
        77 / 256, -2 / 256, 2 / 256, 7.0]
    net = _fixture("xgdc").nets["ctx"]
    z = np.random.default_rng(3).integers(-9, 10, size=(1, 16, 6, 7)).astype(np.float64)
    out = net.grid(z)
    assert out.dtype == np.float64
    assert np.array_equal(out, L.to_grid(out, L.GRID_ACT_BITS))
    # the float net computes nearly the same parameters
    with L.T.no_grad():
        near = net(L.Tensor(z)).data
    assert np.abs(out - near).max() < 0.05


def test_band_split_and_batch_do_not_change_a_bit(monkeypatch):
    # one map, and the same map batched with another, with the column
    # buffer cut to a handful of cells: every layer runs in many bands
    coder = _fixture("diff")
    rng = np.random.default_rng(4)
    z = rng.integers(-6, 7, size=(2, 16, 9, 11)).astype(np.float64)
    for name in ("hyp_dec", "ctx"):
        net = coder.nets[name]
        whole = net.grid(z[:1])
        monkeypatch.setattr(L, "BAND_CELLS", 64)
        assert np.array_equal(net.grid(z)[:1], whole), name
        monkeypatch.undo()


def test_cells_match_the_full_map(monkeypatch):
    # the context net evaluated only at the cells each position reads
    # (_ContextMap) equals the full-map pass at every position: desk nets of
    # hidden width 4 and 16 and the xgdc fixture's, on maps of 1x1, 1xw, hx1
    # and 17x30 (the HD hyper-latent's size), with values at and beyond
    # +-Z_CLAMP, which the map clamps when they are written
    nets = [C.Coder.new(C.CoderConfig.desk("diff", ctx_width=width), seed=width).nets["ctx"]
            for width in (4, 16)] + [_fixture("xgdc").nets["ctx"]]
    rng = np.random.default_rng(5)
    for net in nets:
        c = net.spec.layers[0].in_ch
        for h, w in ((1, 1), (1, 9), (6, 1), (17, 30)):
            z = rng.integers(-9, 10, size=(1, c, h, w)).astype(np.float64)
            z.flat[rng.integers(0, z.size, 4)] = [E.Z_CLAMP, -E.Z_CLAMP,
                                                  E.Z_CLAMP + 3, -50 * E.Z_CLAMP]
            full = net.grid(np.clip(z, -E.Z_CLAMP, E.Z_CLAMP))
            cmap = E._ContextMap(net, c, h, w)
            positions = np.arange(h * w)
            cmap.write(positions, z[0].reshape(c, -1).T)
            out = cmap.params(positions)
            assert out.dtype == np.float64
            assert np.array_equal(out.T.reshape(full.shape), full), (c, h, w)
    # the decoder evaluates one wavefront at a time, each over the values
    # decoded before it, and gets the same parameters
    net = nets[-1]
    z = rng.integers(-5, 6, size=(1, 16, 7, 12)).astype(np.float64)
    full = net.grid(z)[0].reshape(32, -1).T
    payload, support = E.encode_context(z, net)
    seen = []
    params = E._ContextMap.params

    def spy(cmap, positions):
        out = params(cmap, positions)
        seen.append((positions, out))
        return out

    monkeypatch.setattr(E._ContextMap, "params", spy)
    assert np.array_equal(E.decode_context(payload, net, z.shape, support), z)
    fronts = E._decode_order(net, 7, 12)[1]
    assert len(seen) == len(fronts) == 5 * 6 + 11 + 1
    for front, (positions, out) in zip(fronts, seen):
        assert np.array_equal(positions, front)
        assert np.array_equal(out, full[front])


def test_clamp_bounds_the_grid_input():
    # values beyond +-Z_CLAMP code and decode as they are, while the grid
    # nets read them clamped
    net = _fixture("xgdc").nets["ctx"]
    z = np.zeros((1, 16, 3, 4))
    z[0, 2, 1, 1] = 40 * E.Z_CLAMP
    clamped = np.clip(z, -E.Z_CLAMP, E.Z_CLAMP)
    for a, b in zip(E.context_params(net, z), E.context_params(net, clamped)):
        assert np.array_equal(a, b)
    payload, support = E.encode_context(z, net)
    assert np.array_equal(E.decode_context(payload, net, z.shape, support), z)


def test_only_the_decoder_builds_a_context_map(monkeypatch):
    # the encoder reads the whole map's context parameters from
    # Network.grid; _ContextMap serves the decoder's wavefronts alone
    built = []
    init = E._ContextMap.__init__

    def spy(cmap, *args):
        built.append(args)
        init(cmap, *args)

    monkeypatch.setattr(E._ContextMap, "__init__", spy)
    rng = np.random.default_rng(6)
    x = rng.uniform(0.1, 0.9, size=(1, 3, 32, 32)).astype(np.float32)
    xt = np.clip(x + rng.normal(scale=0.05, size=x.shape), 0, 1).astype(np.float32)
    diff = C.Coder.new(C.CoderConfig.desk("diff"), seed=6)
    container, _ = diff.encode(x, xt)
    C.Coder.new(C.CoderConfig.desk("xgdc"), seed=6).encode(x, xt, qt_lambda=50.0)
    assert built == []
    diff.decode(xt, container)
    assert len(built) == 1
    # the encoder still codes single frames only
    with pytest.raises(ContractError):
        E.encode_context(np.zeros((2, 16, 2, 2)), diff.nets["ctx"])


# ---------------------------------------------------------------------------
# decoding under several BLAS kernels
# ---------------------------------------------------------------------------

# Each child encodes every case and decodes the containers of the reference
# (default kernel) child: the desk coders of all four kinds at seed 5 on a
# 32x32 pair, desk xgdc with quad-tree side bits, and the benchmark's 512x512
# xgdc pair of seed 5 at quad-tree lambda 300.
CHILD = textwrap.dedent("""
    import ctypes, glob, json, os, sys
    import numpy as np
    root, out, ref = sys.argv[1], sys.argv[2], sys.argv[3]
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import inputs
    from gdclab import coders as C
    from gdclab import fileio as F

    def corename():
        libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*"))
        for lib in libs:
            for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                         "openblas_get_corename"):
                fn = getattr(ctypes.CDLL(lib), name, None)
                if fn is not None:
                    fn.restype = ctypes.c_char_p
                    return fn().decode()
        return None

    def fixture(kind):
        path = os.path.join(root, "bench", "fixtures", kind + ".ckpt")
        cfg = F.ExperimentConfig.from_file(path + ".cfg").coder_config()
        return C.Coder.from_arrays(cfg, F.load_checkpoint(path))

    rng = np.random.default_rng(32)
    x = rng.uniform(0.1, 0.9, size=(1, 3, 32, 32)).astype(np.float32)
    xt = np.clip(x + rng.normal(scale=0.04, size=x.shape), 0, 1).astype(np.float32)
    cases = [(kind, C.Coder.new(C.CoderConfig.desk(kind), seed=5), x, xt, None)
             for kind in C.KINDS]
    cases.append(("xgdc-qt", cases[-1][1], x, xt, 50.0))
    bx, bxt = inputs.coding_pair(np.random.default_rng(5), 512, 512)
    cases.append(("bench-512-xgdc", fixture("xgdc"), bx, bxt, 300.0))
    arrays = {}
    for name, coder, fx, fxt, lam in cases:
        container, enc = coder.encode(fx, fxt, qt_lambda=lam)
        data = container.to_bytes()
        with open(os.path.join(out, name + ".gdc"), "wb") as f:
            f.write(data)
        arrays[name + "/enc_y_hat"] = enc.latents["y_hat"]
        arrays[name + "/enc_z_hat"] = enc.latents["z_hat"]
        arrays[name + "/enc_mean"] = enc.latents["mean"]
        with open(os.path.join(ref, name + ".gdc"), "rb") as f:
            dec = coder.decode(fxt, F.BitstreamContainer.from_bytes(f.read()))
        arrays[name + "/y_hat"] = dec.latents["y_hat"]
        arrays[name + "/z_hat"] = dec.latents["z_hat"]
        for attr in ("x_hat_d", "x_hat_g", "x_hat_merged"):
            if getattr(dec, attr) is not None:
                arrays[name + "/" + attr] = getattr(dec, attr).data
    np.savez(os.path.join(out, "arrays.npz"), **arrays)
    print(json.dumps({"corename": corename(), "cases": [c[0] for c in cases]}))
""")

# OPENBLAS_CORETYPE value -> CPU flags its kernels need
KERNELS = {"Haswell": ("avx2", "fma"), "Sandybridge": ("avx",)}

# Across kernels the reconstructions go through float32 BLAS in the
# synthesis transforms, so they may differ in their last places.  Measured
# in units of 2^-23, one float32 ulp at 1.0 (the top of the pixel range):
# on a SkylakeX host the largest difference from Haswell and Sandybridge
# was 9 units, on the 512x512 xgdc free head; the test allows ULP_BOUND.
ULP_BOUND = 16


def _cpu_flags():
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {f for line in text.splitlines() if line.startswith("flags")
            for f in line.split(":", 1)[1].split()}


def _second_kernels():
    flags = _cpu_flags()
    kernels = [k for k, need in KERNELS.items() if flags.issuperset(need)]
    if not kernels:
        pytest.skip("the CPU runs no second OpenBLAS kernel")
    return kernels


def _kernel_env(coretype):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["OPENBLAS_NUM_THREADS"] = "1"
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    return env


def _child(tmp, tag, coretype, ref):
    out = tmp / tag
    out.mkdir()
    proc = subprocess.run([sys.executable, "-c", CHILD, str(ROOT), str(out), str(ref)],
                          capture_output=True, text=True, env=_kernel_env(coretype),
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    return out, info, dict(np.load(out / "arrays.npz"))


def test_containers_decode_alike_under_every_kernel(tmp_path):
    # one container decodes to the same y_hat and z_hat under every kernel
    # by construction.  Each kernel also encodes the same bytes and the
    # same means here, but the analysis transform still runs in float32
    # BLAS, so that holds for these inputs rather than for all.  The 512x512
    # case tells the float entropy parameters from the grid's: its means
    # differed between kernels in the last places before the grid.
    kernels = _second_kernels()
    # the reference child, on the default kernel, decodes its own containers
    ref_out, ref_info, ref_arrays = _child(tmp_path, "default", None, tmp_path / "default")
    for name in ref_info["cases"]:
        assert np.array_equal(ref_arrays[name + "/y_hat"], ref_arrays[name + "/enc_y_hat"])
        assert np.array_equal(ref_arrays[name + "/z_hat"], ref_arrays[name + "/enc_z_hat"])
    worst = 0
    for coretype in kernels:
        out, info, arrays = _child(tmp_path, coretype, coretype, ref_out)
        if ref_info["corename"] is not None:
            assert info["corename"] == coretype
        for name in ref_info["cases"]:
            assert (out / f"{name}.gdc").read_bytes() == (ref_out / f"{name}.gdc").read_bytes(), \
                (coretype, name)
        for key, want in ref_arrays.items():
            if key.endswith(("y_hat", "z_hat", "mean")):
                assert np.array_equal(arrays[key], want), (coretype, key)
            else:
                diff = np.abs(arrays[key].astype(np.float64) - want)
                worst = max(worst, float(diff.max()) * 2.0 ** 23)
    assert worst <= ULP_BOUND, worst


def test_selftest_passes_under_every_kernel():
    # the golden containers were made under one kernel; each second kernel
    # decodes them to the recorded latents and reconstructions
    kernels = _second_kernels()
    golden = resources.files("gdclab") / "golden"
    cases = json.loads((golden / "manifest.json").read_text(encoding="utf-8"))
    want = [f"ok {case['name']}" for case in cases] + ["selftest passed"]
    for coretype in kernels:
        env = _kernel_env(coretype)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "gdclab", "selftest"],
                              capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, (coretype, proc.stdout, proc.stderr[-3000:])
        assert proc.stdout.splitlines() == want, coretype


# Each child runs every pass the pool can take at one and two workers
# (test_layers.pool_passes) and hashes the outputs.
POOL_CHILD = textwrap.dedent("""
    import hashlib, json, os, sys
    root = sys.argv[1]
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]
    from test_layers import pool_passes
    print(json.dumps({str(w): {k: hashlib.sha256(v.tobytes()).hexdigest()
                               for k, v in pool_passes(w).items()} for w in (1, 2)}))
""")


def test_pool_keeps_the_bytes_under_every_kernel():
    # an unsplit GEMM gives the same bits on any thread under every kernel,
    # so each kernel gives one worker's bytes at two workers
    kernels = _second_kernels()
    for coretype in kernels:
        proc = subprocess.run([sys.executable, "-c", POOL_CHILD, str(ROOT)], capture_output=True,
                              text=True, env=_kernel_env(coretype), timeout=600)
        assert proc.returncode == 0, (coretype, proc.stderr[-3000:])
        hashes = json.loads(proc.stdout.strip().splitlines()[-1])
        assert hashes["1"] == hashes["2"], coretype


SIMD_CHILD = textwrap.dedent("""
    import hashlib, json, sys
    import numpy as np
    from gdclab import cli
    from gdclab import entropy as E
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    rc = cli.main(["selftest"])
    print(json.dumps({"rc": rc, "on": sorted(f for f, on in __cpu_features__.items() if on),
                      "tables": [hashlib.sha256(E._table_set(lo, hi)).hexdigest()
                                 for lo, hi in json.loads(sys.argv[1])]}))
""")
# golden, bench and widest offset supports
TABLE_SUPPORTS = [(-1, 1), (-5, 5), (-11, 12), (-14, 9), (-42, 27), (-511, 510)]


def _lower_simd_levels():
    """NPY_DISABLE_CPU_FEATURES values that run numpy at each SIMD level
    below the top one this CPU has: its dispatched features from the j-th
    up switched off, for every j."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    have = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    if not have:
        pytest.skip("numpy dispatches no SIMD level above its baseline on this CPU")
    return [have[j:] for j in range(len(have) - 1, -1, -1)]


def test_selftest_and_tables_alike_at_every_simd_level():
    # numpy's exp and log change their bits with its SIMD level; the coder
    # tables use basic arithmetic alone, so every level builds the same
    # table sets and decodes the golden containers as recorded
    levels = _lower_simd_levels()
    golden = resources.files("gdclab") / "golden"
    cases = json.loads((golden / "manifest.json").read_text(encoding="utf-8"))
    want = [f"ok {case['name']}" for case in cases] + ["selftest passed"]
    tables = [hashlib.sha256(E._table_set(lo, hi)).hexdigest() for lo, hi in TABLE_SUPPORTS]
    for disabled in levels:
        env = _kernel_env(None)
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", SIMD_CHILD, json.dumps(TABLE_SUPPORTS)],
                              capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, (disabled, proc.stderr[-3000:])
        lines = proc.stdout.splitlines()
        assert lines[:-1] == want, disabled
        info = json.loads(lines[-1])
        assert info["rc"] == 0 and not set(disabled) & set(info["on"]), disabled
        assert info["tables"] == tables, disabled
