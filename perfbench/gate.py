"""Correctness gate for one CLI request of the benchmark.

A request passes when the process exits with code 0 and its report
certifies the Betti vector the mesh generator built in: ``betti_cw`` equals
it, ``cohomology_ddr`` equals ``[0, b1, b2, 0]`` and ``passed`` is true.  A
``cohomology --generators`` request must also have written a VTK file with
one cell field per generator, named ``h<index>_generator_<j>``, with one
row per element.
"""

from __future__ import annotations

import re

_FIELD = re.compile(r"^(h[12]_generator_\d+) 3 (\d+) double$")


def vtk_fields(text: str) -> dict[str, int]:
    """Cell-field names of a legacy VTK file written by ddrcomplex, with row counts."""
    return {m.group(1): int(m.group(2))
            for m in map(_FIELD.match, text.splitlines()) if m}


def gate(rc: int, report: dict | None, betti, vtk_text: str | None = None,
         generators: bool = False) -> list[str]:
    """Reasons the request failed; empty when it passed."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if report is None:
        return problems + ["no report"]
    betti = list(betti)
    if report.get("betti_cw") != betti:
        problems.append(f"betti_cw {report.get('betti_cw')} != {betti}")
    want = [0, betti[1], betti[2], 0]
    if report.get("cohomology_ddr") != want:
        problems.append(f"cohomology_ddr {report.get('cohomology_ddr')} != {want}")
    if report.get("passed") is not True:
        failed = [c["name"] for c in report.get("checks", []) if not c.get("passed")]
        problems.append(f"passed is not true (failed checks: {failed})")
    if generators:
        if vtk_text is None:
            return problems + ["no VTK file"]
        want_fields = {f"h{i}_generator_{j}" for i in (1, 2) for j in range(betti[i])}
        fields = vtk_fields(vtk_text)
        if set(fields) != want_fields:
            problems.append(f"VTK fields {sorted(fields)} != {sorted(want_fields)}")
        n_cells = report.get("mesh", {}).get("elements")
        if any(rows != n_cells for rows in fields.values()):
            problems.append(f"VTK field rows {sorted(set(fields.values()))} != {n_cells} elements")
    return problems
