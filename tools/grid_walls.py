"""Print the process wall of three ``hgineq verify`` grids, median of 5 runs.

The grids are the product-field and orbit-FD grids whose reports share
weighted norms of one field at one ``p``: an analytic grid on product
fields, and two grids under ``--mode orbit_fd`` (``r:3`` and ``heis1``).
Each run is a fresh process, so the walls include the package import.

Run it from a checkout at two commits and compare the outputs:

    python3 tools/grid_walls.py

The script runs the package from ``src/`` of its own checkout and writes
no file.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 5

GRIDS = [
    "verify --group r:3 --check ckn,hardy,uncertainty --count 6 --seed 3 --radial-fraction 0"
    " --p 1.5,2,3 --alpha=0,0.5,1 --beta 0.5,1",
    "verify --group r:3 --check ckn,hardy,uncertainty --p 1.5,2,3 --alpha=0,0.5 --beta 1"
    " --count 6 --seed 1 --radial-fraction 0 --mode orbit_fd",
    "verify --group heis1 --check ckn,hardy,l2-identity --p 2 --alpha=-0.5,0,0.5 --beta 0.5,1"
    " --k 1,2 --count 6 --seed 1 --radial-fraction 0 --mode orbit_fd",
]


def wall(cmd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "hgineq", *cmd.split()], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def main():
    for cmd in GRIDS:
        walls = sorted(wall(cmd) for _ in range(RUNS))
        runs = " ".join(f"{w:.2f}" for w in walls)
        print(f"wall {statistics.median(walls):.2f} s (runs {runs}) hgineq {cmd}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
