"""hgineq benchmark.

One workload, as the benchmark contract runs it (the last stdout line is
the result object; the line before it holds the run metadata):

    python3 hgbench/run.py --workload radial_corpus --seed 1 --seconds 30 --trace 0

Every workload, each in its own process, with a table of the end-to-end
metrics (exits nonzero if any output check fails):

    python3 hgbench/run.py

Run from the root of a source checkout; the package is imported from
``src/``.  Exit codes: 0 correct, 1 a failed output check, 2 no source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("radial_corpus", "nonradial_corpus", "cold_deep")
DEFAULT_SECONDS = 30


def _git_sha():
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metadata(np, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "seed": seed,
        "src_lines": src_lines,
    }


def run_one(args):
    if not (SRC / "hgineq" / "__init__.py").is_file():
        print(f"no hgineq source under {SRC}", file=sys.stderr)
        return 2
    # a sigma disk cache would hide sigma's cost
    os.environ.pop("HGINEQ_CACHE_DIR", None)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import hgineq
    import numpy as np

    import_s = time.perf_counter() - t0
    import harness

    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        out = harness.run_traced(hgineq, args.workload, args.seed, args.seconds,
                                 spans_path=out_dir / f"spans-{args.workload}.jsonl")
    else:
        out = harness.run_untraced(hgineq, args.workload, args.seed, args.seconds, import_s)
    meta = _metadata(np, args.seed)
    meta.update(workload=args.workload, trace=args.trace, run=out.info,
                problems=out.problems[: harness.MAX_PROBLEMS], problem_count=len(out.problems))
    print(json.dumps({"meta": meta}))
    correct = not out.problems and out.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in out.metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args):
    """Each workload in a fresh process, so set-up and peak memory are its own."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode == 2:
            sys.stderr.write(proc.stderr)
            return 2
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2:
            print(f"{name}: no result (exit code {proc.returncode})")
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        meta = json.loads(lines[-2])["meta"]
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_frac={result['failed'] / result['attempted']:.3g}")
        for problem in meta["problems"]:
            print(f"  problem: {problem}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:48s} {v['value']:<14.6g} {v['unit']}")
        status = max(status, proc.returncode)
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("seed and seconds must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
