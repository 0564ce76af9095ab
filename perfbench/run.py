"""Benchmark of the jdl pipeline: joint training, guided sampling and
visual counterfactuals, end to end and layer by layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload train_b64 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from a run in which spans are
recorded around the public names of ``jdl``. ``--size tiny`` runs every
workload on a tiny model in seconds. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric with its unit, the
failed ratio and the environment. Records and spans go to
``.bench_build/perfbench/`` in the checkout.

The whole load comes from this one process, with BLAS pinned to one thread.
"""

from __future__ import annotations

import os

# before numpy loads anywhere in this process or its children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import hashlib
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SIZE_CHOICES = ("default", "tiny")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="a workload named in BENCHMARK.json, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=SIZE_CHOICES, default="default")
    return p.parse_args(argv)


def blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import numpy as np
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout's own git directory; None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256() -> str:
    """Digest of the measured sources, which identifies them without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, dtype: str) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "dtype": dtype,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def declared(spec: dict, trace: int) -> dict[str, str]:
    """Metric name -> unit for this mode, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def print_table(title: str, metrics: dict, units: dict, attempted: int,
                failures: list) -> None:
    print(f"== {title}")
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:16.6g} {unit}")
    print(f"{'failed_ratio':44s} {len(failures) / max(attempted, 1):16.6g} "
          f"({len(failures)} of {attempted})")
    for f in failures:
        print(f"FAILED {f}")


def run_one(args, spec: dict) -> int:
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    wl, out = workloads.run(args.workload, args.size, args.seed, args.seconds,
                            bool(args.trace), OUT_DIR)
    units = declared(spec, args.trace)
    if set(out.metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(out.metrics) ^ set(units))} "
                           "disagree with BENCHMARK.json")
    env = environment(args, str(wl.model.params["enc.stem.w"].data.dtype))
    stem = OUT_DIR / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "metrics": out.metrics, "attempted": out.attempted,
              "failures": out.failures, "details": wl.details}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if args.trace:
        Path(f"{stem}.spans.json").write_text(json.dumps(out.spans))
    print("# env " + json.dumps(env))
    print_table(args.workload, out.metrics, units, out.attempted, out.failures)
    print(json.dumps({
        "correct": not out.failures,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": {k: {"value": out.metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload in its own process, so each has its own peak memory."""
    attempted = failed = 0
    metrics = {}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=1800)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{w['name']}.{k}": v for k, v in result["metrics"].items()})
    print(f"== all workloads: failed_ratio {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "jdl" / "__init__.py").is_file():
        print(f"error: no jdl sources under {SRC}; run from the root of a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
