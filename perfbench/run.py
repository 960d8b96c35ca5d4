"""evhash benchmark: one workload per run, untraced or traced.

    python3 perfbench/run.py --workload train --seed 1 --seconds 12 --trace 0

Runs from a checkout of the repository and imports evhash from its
``src/``. With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics and the tracing overhead; either way
the last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``). Named metrics, the environment,
check results and (traced) spans also go to ``perfbench/out/``.
The exit code is 0 when every output check passed, 1 when one failed, and
2 when there is no evhash source tree to benchmark.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train", "copy_eval", "index_mixed")


def _blas_threads():
    """OpenBLAS thread count of numpy's bundled BLAS, or None if unknown."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return None  # a plain checkout; git would report an enclosing repo
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "evhash").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(), "src_sha256": digest.hexdigest(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "evhash" / "__init__.py").is_file():
        print(f"no evhash source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import evhash
    import workloads

    if Path(evhash.__file__).resolve().parent != SRC / "evhash":
        print(f"imported evhash from {evhash.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    env = environment(args)
    print(f"# evhash benchmark: {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print("env " + json.dumps(env))
    out = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                             bool(args.trace))

    for line in out.lines:
        print(line)
    for name, (value, unit) in out.named.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, passed in out.checks.items():
        print(f"check {'PASS' if passed else 'FAIL'}: {name}")
    if args.trace:
        metrics = out.layer_metrics()
    else:
        metrics = {name: {"value": float(out.e2e[name]), "unit": unit}
                   for name, unit in workloads.END_TO_END}
    correct = bool(out.checks) and all(out.checks.values())

    workloads.OUT_DIR.mkdir(exist_ok=True)
    record = workloads.OUT_DIR / (f"{args.workload}-seed{args.seed}"
                                  f"-trace{args.trace}.json")
    record.write_text(json.dumps({
        "env": env, "correct": correct, "checks": out.checks,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in out.named.items()},
        "metrics": metrics, "trace": out.trace}))
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
