"""Print the cold-start latency of one command per `coulomblab` subcommand,
in milliseconds, as medians of interleaved fresh-process repeats.

Run from the repository root:

    PYTHONPATH=src python scripts/cli_coldstart.py

Each repeat starts every case once, in turn, as a new
`python -m coulomblab.cli <argv> --json` process, so a slow spell of a
shared machine falls on all cases alike; each line gives a case's median
wall time over the repeats and the quartiles.  Two floors that no command
can go below come first: `python -c pass` and `python -c "import numpy"`.
`check` is left out: it runs the acceptance suite for minutes.  Whether
Python may write bytecode caches (PYTHONDONTWRITEBYTECODE) changes every
line, so the header prints it.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

REPEATS = 20

FLOORS = [
    ("python -c pass", ["-c", "pass"]),
    ("python -c 'import numpy'", ["-c", "import numpy"]),
]

COMMANDS = [
    ["potential", "--domain", "ball:d=3,R=1", "--point", "0.1,0.2,0"],
    ["energy", "--domain", "ball:d=2,R=1,N=2", "--points", "0.1,0.2;0.5,0"],
    ["coeffs", "--axes", "1|2|0.5"],
    ["surface", "--op", "identity", "--d", "3"],
    ["green", "--geometry", "disk", "--z", "2,0.5", "--w", "1.5,1"],
    ["capacity", "--map", "ellipse:a1=2,a2=1"],
    ["droplet", "--alpha", "0.2"],
    ["fluct", "--op", "cov", "--k", "2"],
    ["riesz", "--s", "0.5", "--N", "16"],
    ["balayage", "--domain", "ellipse:a1=2,a2=1", "--moment", "2"],
    ["hole", "--domain", "annulus:R=1,c=0.5", "--mode", "energy"],
    ["sample", "--ensemble", "ginibre", "--n", "8", "--sweeps", "50"],
]


def cases():
    out = [(name, [sys.executable, *args]) for name, args in FLOORS]
    for argv in COMMANDS:
        out.append((" ".join(argv[:3]),
                    [sys.executable, "-m", "coulomblab.cli", *argv, "--json"]))
    return out


def main():
    table = cases()
    times = [[] for _ in table]
    for _ in range(REPEATS):
        for spent, (name, cmd) in zip(times, table):
            t0 = time.perf_counter()
            done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            spent.append((time.perf_counter() - t0) * 1e3)
            if done.returncode != 0:
                raise SystemExit(f"{name}: exit {done.returncode}\n{done.stderr.decode()}")
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"{os.cpu_count()} cpus, PYTHONDONTWRITEBYTECODE="
          f"{os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}, {REPEATS} repeats")
    for (name, _), spent in zip(table, times):
        q1, med, q3 = statistics.quantiles(spent, n=4)
        print(f"{name:40s} {med:7.1f} ms  (quartiles {q1:.1f}-{q3:.1f})")


if __name__ == "__main__":
    main()
