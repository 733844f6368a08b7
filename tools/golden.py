"""Build the golden containers that ``gdclab selftest`` decodes.

    python3 tools/golden.py

Imports the package from ``src/`` next to this script and rewrites
``src/gdclab/golden/``: one container per case in CASES and
``manifest.json``.  Each case's coder and frames come from
``cli.golden_inputs``, the function ``selftest`` rebuilds them with, so the
manifest records the seeds, the gain, the size and the quad-tree lambda
beside the SHA-256 of the rebuilt inputs, and the SHA-256 of the coder
table set of each payload's support.  It also records what the package
decodes each container to: the SHA-256 of ``z_hat`` and ``y_hat``
and the PSNR of each reconstruction against the original frame.  The
script then runs ``selftest`` on the set it wrote.

Every case uses a desk coder with its latents scaled by GAIN, on two
independent uniform 64x64 frames: an untrained coder's latents span too
few values for a decode check to mean much without the gain.  The
``xgdc-qt`` frame seed and lambda give a quad-tree that splits and picks
both modes.

Rerun the script after any change to the container format or to what a
coder decodes (its transforms, its entropy parameters, the tables or the
rANS coder), and commit the new set.  On a tree that changes neither, it
rewrites the same bytes: BLAS runs on one thread, pinned before numpy
loads, because the float32 synthesis sums (and so the PSNRs) depend on the
thread count.  A change of the entropy coder alone rewrites only the
containers: the manifest's inputs, tables, latents and PSNRs stay.
"""

from __future__ import annotations

import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GAIN = 20
SIZE = 64
CODER_SEED = 4
# name, kind, frame seed, quad-tree lambda
CASES = [("diff", "diff", 1, None), ("codecnet", "codecnet", 2, None),
         ("gdc", "gdc", 3, None), ("xgdc", "xgdc", 4, None), ("xgdc-qt", "xgdc", 13, 20.0)]


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    from gdclab import cli
    from gdclab import fileio as F

    out_dir = os.path.join(ROOT, "src", "gdclab", "golden")
    os.makedirs(out_dir, exist_ok=True)
    manifest = []
    for name, kind, frame_seed, qt_lambda in CASES:
        case = {"name": name, "file": f"{name}.gdc", "kind": kind, "coder_seed": CODER_SEED,
                "gain": GAIN, "frame_seed": frame_seed, "size": SIZE, "qt_lambda": qt_lambda}
        coder, x, xt, inputs = cli.golden_inputs(case)
        container, enc = coder.encode(x, xt, qt_lambda=qt_lambda)
        data = container.to_bytes()
        with open(os.path.join(out_dir, case["file"]), "wb") as f:
            f.write(data)
        dec = coder.decode(xt, F.BitstreamContainer.from_bytes(data))
        for key in ("z_hat", "y_hat"):
            if not np.array_equal(dec.latents[key], enc.latents[key]):
                raise SystemExit(f"{name}: {key} decodes differently from the encoder's")
        latents, psnr = cli.golden_outputs(dec, x)
        manifest.append({**case, "inputs": inputs, "tables": cli.golden_tables(container),
                         "latents": latents, "psnr": psnr})
        print(f"{name}: {len(data)} bytes, y {container.payload_y.lo}..{container.payload_y.hi}, "
              f"z {container.payload_z.lo}..{container.payload_z.hi}")
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1)
        f.write("\n")
    return cli.main(["selftest"])


if __name__ == "__main__":
    raise SystemExit(main())
