"""Whole fresh-process ``verify`` requests on a mesh ladder, a parent's
package against this checkout's.

Usage (from anywhere; this checkout's package is taken from its ``src``)::

    python3 tools/ladder.py PARENT/src > BENCH.json

A cell is a mesh and a degree: the builtin cavity at k = 0, and ``tunnelN``
(an N x N x N voxel block with the column (N//2, N//2, :) removed, so
b1 = 1 and b2 = 0) for N = 4, 6, ..., 20 at k = 0 and N = 4, 6, 8, 10 at
k = 1 and 2.  Each request is ``python -m ddrcomplex.cli verify --degree k
--no-timestamp`` with every check family, in a fresh process, so it pays
the interpreter's start, the imports and the exit as a user does.  A cell
runs ``PAIRS`` pairs, one request with the parent's package and one with
this checkout's, the side that goes first alternating from pair to pair;
each request's wall time, CPU time (user + system, from ``wait4``) and peak
memory (``ru_maxrss``) are recorded, with its exit code and whether the two
sides' reports are byte-identical.  A fixed pure-Python reference loop is
timed just before and just after each request (each the median of three
runs), and ``ref_s`` is their mean, so that a wall time can be read in units
of how fast the machine ran then, as in ``perfbench/run.py``.  A request
that runs longer than ``BUDGET`` seconds is stopped, and its cell and the
larger cells of its degree are recorded as skipped.

Prints one JSON document: the machine, both sources, and per cell every
sample and the median of the paired differences (change minus parent), in
seconds and, for the wall time, in reference loops (``delta_wall_ref``).
Progress goes to standard error.  BLAS runs one thread, as in
``perfbench/run.py``; the rest of the environment is passed on unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy

SRC = Path(__file__).resolve().parent.parent / "src"
CELLS = ([("cavity", 0)] + [(f"tunnel{n}", 0) for n in range(4, 22, 2)]
         + [(f"tunnel{n}", k) for k in (1, 2) for n in range(4, 12, 2)])
PAIRS = 3          # alternating pairs of requests per cell
BUDGET = 60.0      # seconds one request may take
REFERENCE_LOOP = 500_000   # iterations of the reference loop (about 0.05 s)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def tunnel_pattern(n: int) -> str:
    """The occupancy text of tunnelN: z-slabs of rows, '.' on the column."""
    rows = ["".join("." if (i, j) == (n // 2, n // 2) else "#" for i in range(n))
            for j in range(n)]
    return "\n\n".join(["\n".join(rows)] * n) + "\n"


def reference_s() -> float:
    """Median time of a fixed pure-Python loop: how fast the machine runs now."""
    def once() -> float:
        t, x = time.perf_counter(), 0
        for i in range(REFERENCE_LOOP):
            x += i * i % 7
        return time.perf_counter() - t
    return statistics.median(once() for _ in range(3))


class Ladder:
    """The requests of one ladder run: environments, meshes and scratch files."""

    def __init__(self, parent: Path, work: Path, budget: float):
        self.work, self.budget = work, budget
        base = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        base.update({var: "1" for var in BLAS_VARS})
        self.env = {side: dict(base, PYTHONPATH=str(src))
                    for side, src in (("parent", parent), ("change", SRC))}

    def mesh_args(self, mesh: str) -> list[str]:
        """CLI arguments of a ladder mesh; a tunnel's file is written once,
        by this checkout's ``mesh`` command."""
        if mesh == "cavity":
            return ["--builtin", "cavity"]
        path = self.work / f"{mesh}.json"
        if not path.exists():
            pattern = self.work / f"{mesh}.txt"
            pattern.write_text(tunnel_pattern(int(mesh[6:])))
            subprocess.run([sys.executable, "-m", "ddrcomplex.cli", "mesh", "--pattern",
                            str(pattern), "--out", str(path)], env=self.env["change"],
                           check=True, stdout=subprocess.DEVNULL)
        return ["--mesh", str(path)]

    def request(self, side: str, args: list[str]) -> dict:
        """One fresh-process request: exit code, wall and CPU seconds, peak
        MB, the mean of the reference loop's seconds just before and just
        after it, and the report's bytes; ``None`` past the budget."""
        report = self.work / f"{side}.report.json"
        report.unlink(missing_ok=True)
        ref = reference_s()
        argv = [sys.executable, "-m", "ddrcomplex.cli", "verify", *args, "--no-timestamp",
                "--out", str(report)]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=self.env[side], cwd=self.work,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        timer = threading.Timer(self.budget, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if wall > self.budget:
            return None
        ref = (ref + reference_s()) / 2
        return {"rc": proc.returncode, "wall_s": round(wall, 4),
                "cpu_s": round(usage.ru_utime + usage.ru_stime, 4),
                "peak_mb": round(usage.ru_maxrss / 1024.0, 1), "ref_s": round(ref, 4),
                "report": report.read_bytes() if report.exists() else None}

    def cell(self, mesh: str, degree: int) -> dict:
        """Run one cell's pairs; a request over budget ends the cell."""
        args = self.mesh_args(mesh) + ["--degree", str(degree)]
        runs = {"parent": [], "change": []}
        same = True
        for p in range(PAIRS):
            order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
            for side in order:
                run = self.request(side, args)
                if run is None:
                    return {"status": "skipped",
                            "reason": f"a {side} request ran over {self.budget} s"}
                runs[side].append(run)
            same &= runs["parent"][-1].pop("report") == runs["change"][-1].pop("report")
        out = {"status": "ok", "same_report": same}
        for side, samples in runs.items():
            out[side] = {key: [s[key] for s in samples]
                         for key in ("rc", "wall_s", "cpu_s", "peak_mb", "ref_s")}
        for key in ("wall_s", "cpu_s"):
            diffs = [c - p for p, c in zip(out["parent"][key], out["change"][key])]
            out[f"delta_{key[:-2]}_ms"] = round(1e3 * statistics.median(diffs), 1)
        ratios = {side: [w / r for w, r in zip(out[side]["wall_s"], out[side]["ref_s"])]
                  for side in runs}
        out["delta_wall_ref"] = round(statistics.median(
            c - p for p, c in zip(ratios["parent"], ratios["change"])), 2)
        out["delta_peak_mb"] = round(statistics.median(out["change"]["peak_mb"])
                                     - statistics.median(out["parent"]["peak_mb"]), 1)
        return out


def _commit(src: Path) -> str | None:
    """The commit of a source tree in a git checkout, ``-dirty`` if files
    under it differ from that commit."""
    git = ["git", "-C", str(src)]
    head = subprocess.run(git + ["rev-parse", "--short", "HEAD"], capture_output=True, text=True)
    if head.returncode:
        return None
    edited = subprocess.run(git + ["status", "--porcelain", "--", "."],
                            capture_output=True, text=True).stdout.strip()
    return head.stdout.strip() + ("-dirty" if edited else "")


def run_cells(ladder: Ladder, cells: list[tuple[str, int]]) -> list[dict]:
    """Each cell's record, in order; after a cell over budget the larger
    cells of its degree are skipped unrun."""
    records, over = [], set()
    for mesh, degree in cells:
        record = {"mesh": mesh, "degree": degree}
        if degree in over:
            record.update(status="skipped", reason="a smaller cell of this degree "
                                                   "ran over the budget")
        else:
            record.update(ladder.cell(mesh, degree))
            if record["status"] == "skipped":
                over.add(degree)
        print(f"{mesh} k={degree}: {record['status']}"
              + (f", delta wall {record['delta_wall_ms']} ms" if "delta_wall_ms" in record
                 else ""), file=sys.stderr)
        records.append(record)
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the src directory of the parent checkout")
    args = parser.parse_args(argv)
    if not (args.parent / "ddrcomplex" / "cli.py").is_file():
        parser.error(f"{args.parent} holds no ddrcomplex package")

    with tempfile.TemporaryDirectory() as tmp:
        cells = run_cells(Ladder(args.parent.resolve(), Path(tmp), BUDGET), CELLS)

    json.dump({"tool": "tools/ladder.py", "command": "verify (all families), --no-timestamp",
               "machine": {"python": platform.python_version(), "numpy": numpy.__version__,
                           "cpus": os.cpu_count(), "platform": platform.platform(),
                           "blas_threads": 1,
                           "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
               "parent": _commit(args.parent), "change": _commit(SRC),
               "pairs": PAIRS, "budget_s": BUDGET, "reference_loop": REFERENCE_LOOP,
               "cells": cells},
              sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
