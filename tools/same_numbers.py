"""Print the numbers a change is meant to keep, as sha256 prefixes.

- For each benchmark workload, the ``render_json`` document of its
  reference units (``hgbench/harness.py``'s ``prefix_document``).  These
  units do not depend on ``--seed``.
- For a fixed grid of ``hgineq`` commands, each run in a fresh process:
  the stdout hash and the exit status.

Run it from a checkout at two commits and compare the outputs:

    python3 tools/same_numbers.py > after.txt

The script imports the benchmark's modules and the package from ``src/``
of its own checkout, and writes no file.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("radial_corpus", "nonradial_corpus", "cold_deep")

COMMANDS = [
    *[cmd for g in ("r:3", "heis1", "aniso:1,2") for cmd in (
        f"verify --group {g} --check ckn,hardy,hpw1 --count 4 --seed 3 --radial-fraction 0.5",
        f"verify --group {g} --check ckn,pair,higher --count 2 --seed 5 --radial-fraction 0.0"
        " --p 1.5,3 --alpha 0.5 --beta 1 --k 1,2 --m 0,1 --theta 0.5",
        f"identity-check --group {g} --count 3 --seed 2 --k 1,2 --alpha=-1,0.5",
        f"scan-sharpness --group {g} --p 2 --alpha 0 --beta 1",
        f"sphere-measure --group {g}",
    )],
    "verify --group r:3 --check ckn,hardy,hpw1 --count 4 --seed 3 --radial-fraction 0.5"
    " --mode orbit_fd",
    "identity-check --group aniso:1,1,2 --count 3 --seed 2 --mode analytic --k 1,2"
    " --alpha=-1,0.5",
    "constants --group heis1 --p 2 --alpha 0.5 --beta 1 --theta 2 --k 2 --m 1",
    "verify --group r:3 --check ckn --count 1 --alpha nan",
    *[f"sphere-measure --group {g} --norm max" for g in ("r:3", "heis1", "aniso:1,2", "aniso:1,1,2")],
    "sphere-measure --group r:5",
    # every quasi-radial row the grids above leave out: up1p, hpw1, hpw2,
    # l2-sharp and both combined rows on the one-node route
    "verify --group heis1 --check uncertainty,l2-sharp,combined --count 3 --seed 4"
    " --radial-fraction 1 --p 1.5,2 --alpha 0,0.5 --beta 1 --k 1,2",
    # the exponential branch, whose profile underflows across much of the
    # carrier, and cold_deep's identity configuration (order 64, 12 panels)
    "scan-sharpness --group r:3 --p 3 --alpha 0.5 --beta 1",
    "identity-check --group heis1 --count 3 --seed 2 --k 1,2,3 --alpha=-1,0,1"
    " --radial-order 64 --radial-panels 12",
    # the grids of tools/grid_walls.py: many weights of one field at one p,
    # on product fields and under orbit finite differences
    "verify --group r:3 --check ckn,hardy,uncertainty --count 6 --seed 3 --radial-fraction 0"
    " --p 1.5,2,3 --alpha=0,0.5,1 --beta 0.5,1",
    "verify --group r:3 --check ckn,hardy,uncertainty --p 1.5,2,3 --alpha=0,0.5 --beta 1"
    " --count 6 --seed 1 --radial-fraction 0 --mode orbit_fd",
    "verify --group heis1 --check ckn,hardy,l2-identity --p 2 --alpha=-0.5,0,0.5 --beta 0.5,1"
    " --k 1,2 --count 6 --seed 1 --radial-fraction 0 --mode orbit_fd",
    # a quasi-radial field on a sphere pass: an orbit-FD identity takes its
    # sampled grid beside the orbit finite differences of its derivatives
    "identity-check --group heis1 --count 3 --seed 2 --k 1,2 --alpha=0 --mode orbit_fd",
    # R^1..R^3 of each product field, shared by three checks in its own norm
    "verify --group heis1 --check higher,l2-identity,l2-sharp --count 3 --seed 6"
    " --radial-fraction 0 --p 1.5,2 --theta 0.25 --k 1,2,3 --alpha=0.25",
]


def _prefix(data):
    return hashlib.sha256(data).hexdigest()[:16]


def workload_hashes():
    sys.dont_write_bytecode = True  # no __pycache__ under hgbench/ or src/
    sys.path[:0] = [str(ROOT / "hgbench"), str(ROOT / "src")]
    import harness
    import hgineq
    import workloads

    for name in WORKLOADS:
        wl = workloads.build(hgineq, name, 0)
        ex = harness.execute(hgineq, wl, 0.0, reference_only=True)
        doc = harness.prefix_document(hgineq, ex)
        print(f"workload {name} {_prefix(doc.encode())}", flush=True)


def command_hashes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    for cmd in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "hgineq", *cmd.split()], capture_output=True,
                              env=env, cwd=ROOT, check=False)
        print(f"command {_prefix(proc.stdout)} exit={proc.returncode} hgineq {cmd}", flush=True)


def main():
    workload_hashes()
    command_hashes()
    return 0


if __name__ == "__main__":
    sys.exit(main())
