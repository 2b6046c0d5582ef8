"""Self-test of the benchmark's mesh generator and correctness gate.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

It shows that the gate cannot pass everything: a real CLI request with an
injected orientation fault, a real report checked against a wrong Betti
vector, and a VTK file missing a generator field are each counted as
failed, while the unmodified request passes.  It also shows that the mesh
generator refuses holes whose topology it could not vouch for.  Exits 0
when every control behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from gate import gate  # noqa: E402
from meshgen import TopologyError, build_block, uniform_lines  # noqa: E402
from run import Checkout, _read  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def cli_report(co: Checkout, block, *args: str) -> tuple[int, dict | None, str | None]:
    mesh, report, vtk = co.path("mesh.json"), co.path("report.json"), co.path("gen.vtk")
    for p in (report, vtk):
        if os.path.exists(p):
            os.remove(p)
    with open(mesh, "w", encoding="utf-8") as fh:
        json.dump(block.doc, fh)
    res = co.run([sys.executable, "-m", "ddrcomplex.cli", *args, "--mesh", mesh,
                  "--out", report, "--no-timestamp"], "req")
    text = _read(report)
    return res["rc"], (json.loads(text) if text else None), _read(vtk)


def main() -> int:
    co = Checkout(os.getcwd())
    results = []

    def expect(label: str, ok: bool) -> None:
        results.append(ok)
        print(f"[{'ok' if ok else 'FAIL'}] {label}")

    try:
        ring = build_block([uniform_lines(n, 1.0) for n in (3, 3, 1)], tunnels=[(2, (1, 1))])
        rc, doc, _ = cli_report(co, ring, "verify", "--degree", "0")
        expect("an unmodified verify request passes the gate", not gate(rc, doc, ring.betti))
        wrong = (1, 0, 0, 0)
        expect("the same report against a wrong Betti vector is counted as failed",
               bool(gate(rc, doc, wrong)))
        rc, doc, _ = cli_report(co, ring, "verify", "--degree", "0", "--inject-fault", "omega_tf")
        expect("a verify --inject-fault omega_tf request is counted as failed",
               bool(gate(rc, doc, ring.betti)))

        rc, doc, vtk = cli_report(co, ring, "cohomology", "--degree", "0",
                                  "--generators", co.path("gen.vtk"))
        expect("an unmodified cohomology --generators request passes the gate",
               not gate(rc, doc, ring.betti, vtk, generators=True))
        dropped = vtk.replace("h1_generator_0 3", "other_field 3")
        expect("a VTK file without the generator field is counted as failed",
               bool(gate(rc, doc, ring.betti, dropped, generators=True)))

        for label, kwargs in (
                ("a tunnel touching a side wall", {"tunnels": [(2, (0, 1))]}),
                ("a cavity on the boundary", {"cavities": [(1, 1, 0)]}),
                ("a cavity next to a tunnel", {"tunnels": [(2, (1, 1))], "cavities": [(2, 2, 1)]})):
            try:
                build_block([uniform_lines(n, 1.0) for n in (4, 4, 3)], **kwargs)
                refused = False
            except TopologyError:
                refused = True
            expect(f"the generator refuses {label}", refused)

        for w in WORKLOADS.values():
            for seed in range(20):
                rng = random.Random(seed)
                w.make(rng)
                w.probe(rng)
        expect("every workload mesh and probe of seeds 0..19 passes the generator's checks", True)
    finally:
        co.close()
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
