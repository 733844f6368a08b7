"""Self-check of the benchmark itself, at minimal input sizes.

    python3 bench/selfcheck.py

Checks that

* every workload, untraced and traced, ends its output with one JSON line
  holding exactly correct / attempted / failed / metrics, with no failed
  operation, and with exactly the metrics BENCHMARK.json names for that
  mode, each in its declared unit;
* the correctness check fires: a container corrupted between to_bytes and
  from_bytes and a training block from non-finite weights each count as a
  failed operation, and a decoded reconstruction one ulp off the encoder's
  raises the benchmark's Mismatch;
* a traced run puts every original library function back.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

import run
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(cond, msg):
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {msg}")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    return [w["name"] for w in bench["workloads"]], units


def check_output(workload, trace, units):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: "
                                f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} trace={trace}: {result['attempted']} attempted, "
          f"{result['failed']} failed, correct={result['correct']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == units, f"{workload} trace={trace}: metrics/units differ from BENCHMARK.json: "
                        f"missing {sorted(set(units) - set(got))}, "
                        f"extra {sorted(set(got) - set(units))}, "
                        f"units {[(k, got[k], units[k]) for k in got if k in units and got[k] != units[k]]}")
    for k, v in result["metrics"].items():
        check(isinstance(v["value"], float) and np.isfinite(v["value"]),
              f"{workload}: {k} = {v['value']!r}")
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
          f"{result['attempted']} ops attempted")


def flip_middle_byte(data):
    k = len(data) // 2
    return data[:k] + bytes([data[k] ^ 0x5A]) + data[k + 1:]


def check_failures_counted():
    for name in ("code-hd-diff", "code-512-xgdc"):
        wl = run.SMOKE[name]()
        wl.prepare(3)
        loop = run.Loop(wl)
        check(loop.attempt() is not None, f"{name}: clean round trip failed")
        wl.tamper = flip_middle_byte
        check(loop.attempt() is None and loop.failed == 1,
              f"{name}: corrupted container was not counted as failed")
        wl.tamper = None
        decode = wl.coder.decode

        def off_by_one_ulp(xt, container):
            out = decode(xt, container)
            out.x_hat_d.data.flat[0] = np.nextafter(out.x_hat_d.data.flat[0], np.inf)
            return out

        wl.coder.decode = off_by_one_ulp
        try:
            wl.op(0)
        except run.Mismatch:
            pass
        else:
            check(False, f"{name}: a one-ulp reconstruction difference went unnoticed")
        print(f"ok  {name}: corrupted container and one-ulp decode difference both fail")
    wl = run.SMOKE["train-desk32"]()
    wl.prepare(3)
    wl.arrays = {n: a * np.nan for n, a in wl.arrays.items()}
    loop = run.Loop(wl)
    check(loop.attempt() is None and loop.failed == 1,
          "train-desk32: non-finite training was not counted as failed")
    print("ok  train-desk32: non-finite training counted as a failed operation")


def check_restore():
    saved = spans.originals()
    tracer = spans.Tracer()
    tracer.install()
    try:
        spans.assert_untouched(saved)
    except AssertionError:
        pass
    else:
        check(False, "installing the tracer replaced nothing")
    tracer.restore()
    spans.assert_untouched(saved)
    print(f"ok  tracer replaces and restores {len(saved)} library functions")


def main():
    names, units = declared()
    check(sorted(names) == sorted(run.WORKLOADS), f"workloads {names} vs {sorted(run.WORKLOADS)}")
    check_restore()
    check_failures_counted()
    for name in names:
        for trace in (0, 1):
            check_output(name, trace, units[trace])
    print("selfcheck passed")


if __name__ == "__main__":
    main()
