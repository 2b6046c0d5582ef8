"""Command-line front end.

Subcommands::

    ddrcomplex mesh       --builtin cube --out cube.json
    ddrcomplex cohomology --builtin ring --degree 1 --out report.json
    ddrcomplex verify     --builtin cavity --degree 1 --checks complex,cochain

Exit codes: 0 success, 1 failed check or cohomology/Betti mismatch,
2 invalid input (including a path that cannot be read or written, and an
input file that is not UTF-8 text).
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import sys

import numpy as np

from .errors import DdrError, InputError
# unused here, but perfbench/traced.py patches both names in this module
from .homology import betti_numbers, build_cochain_complex
from .mesh import (
    Mesh,
    build_voxel_mesh,
    builtin_pattern,
    compute_orientation,
    load_mesh,
    parse_pattern_text,
    save_mesh,
)
from .operators import OPERATORS
from .spaces import frame_values
from .verification import RankOptions, corrupt_orientation, run_all
from .vtkio import write_vtk

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2


def _add_mesh_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--mesh", metavar="PATH", help="mesh JSON document")
    group.add_argument("--builtin", metavar="NAME",
                       help="builtin voxel mesh: cube, ring, or cavity")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--degree", type=int, default=0, metavar="K",
                        help="polynomial degree k (0..4, default 0)")
    parser.add_argument("--out", metavar="PATH", help="report output path (default stdout)")
    parser.add_argument("--rank-tol", type=float, default=None, metavar="X",
                        help="relative singular-value threshold for rank decisions")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="seed recorded in the report (checks are deterministic)")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp (for byte-identical reports)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddrcomplex",
        description="Discrete de Rham complexes on 3D polyhedral meshes: "
                    "operators, cohomology, and numerical certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="generate a voxel mesh JSON document")
    src = p_mesh.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", metavar="NAME", help="cube, ring, or cavity")
    src.add_argument("--pattern", metavar="PATH",
                     help="occupancy text file (z-slabs of #/. rows separated by blank lines)")
    p_mesh.add_argument("--cell-size", type=float, default=1.0, metavar="H",
                        help="voxel side length (default 1.0)")
    p_mesh.add_argument("--out", metavar="PATH", default="mesh.json",
                        help="output path (default mesh.json)")

    p_coh = sub.add_parser("cohomology",
                           help="Betti numbers, cohomology dimensions, generators")
    _add_mesh_source(p_coh)
    _add_common(p_coh)
    p_coh.add_argument("--generators", metavar="PATH",
                       help="also lift generators and write a VTK file with "
                            "one potential vector per element")

    p_ver = sub.add_parser("verify", help="run the certificate battery")
    _add_mesh_source(p_ver)
    _add_common(p_ver)
    p_ver.add_argument("--checks", metavar="LIST", default=None,
                       help="comma-separated families (default: all): complex, cohomology, "
                            "cochain, zero_reduction, closed_forms, consistency, generators")
    p_ver.add_argument("--inject-fault", metavar="SPEC", default=None,
                       help="corrupt the orientation table before checking: "
                            "omega_tf[:t[:j]], omega_fe[:f[:j]], edge_length[:e]")
    return parser


def _load_source(args) -> Mesh:
    if getattr(args, "builtin", None):
        return build_voxel_mesh(builtin_pattern(args.builtin))
    return load_mesh(args.mesh)


def _check_degree(k: int) -> int:
    if not 0 <= k <= 4:
        raise InputError(f"degree must be in [0, 4], got {k}")
    return k


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _timestamp(args) -> str | None:
    if args.no_timestamp:
        return None
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def cmd_mesh(args) -> int:
    if args.builtin:
        mesh = build_voxel_mesh(builtin_pattern(args.builtin), h=args.cell_size)
    else:
        with open(args.pattern, encoding="utf-8") as fh:
            mesh = build_voxel_mesh(parse_pattern_text(fh.read()), h=args.cell_size)
    save_mesh(mesh, args.out)
    v, e, f, t = mesh.counts
    print(f"wrote {args.out}: {v} vertices, {e} edges, {f} faces, {t} elements")
    return EXIT_OK


def _generator_fields(high, lifted) -> dict[str, np.ndarray]:
    """One constant potential vector per element for each lifted generator
    (:attr:`.VerifySession.lifted`): the potential that the element block of
    the generator's outgoing operator reconstructs on the degree-k complex
    ``high``, at the element centres, a size group at a time."""
    fields: dict[str, np.ndarray] = {}
    geometry = high.orient.geometry("cell")
    for lg in lifted:
        cells = OPERATORS[lg.index].blocks[-1]
        for j, vec in enumerate(lg.vectors):
            values = np.zeros((high.mesh.n_elements, 3))
            for st in high.stacks(cells.builder):
                phi = high._eval("cell", st.ids, geometry.center[st.ids][:, None, :], high.k)
                coeffs = (st.potential @ vec[st.globals][..., None])[..., 0]
                values[st.ids] = frame_values(phi, geometry.frame[st.ids], coeffs)[:, 0]
            fields[f"h{lg.index}_generator_{j}"] = values
    return fields


def cmd_cohomology(args) -> int:
    mesh = _load_source(args)
    k = _check_degree(args.degree)
    orient = compute_orientation(mesh)
    opts = RankOptions(rel_tol=args.rank_tol, seed=args.seed)
    selection = ["cohomology"] + (["generators"] if args.generators else [])
    report = run_all(mesh, orient, k, selection, opts, timestamp=_timestamp(args))
    if args.no_timestamp:
        report.strip_timing()
    lifts_pass = all(c.passed for c in report.checks if c.name.startswith("generators."))
    if args.generators and lifts_pass:
        fields = _generator_fields(report.session.high, report.session.lifted)
        write_vtk(args.generators, mesh, fields, title=f"cohomology generators (degree {k})")
    _emit(report.as_dict(), args.out)
    betti = report.betti_cw        # empty when the Betti numbers could not be computed
    expect = [0, betti[1], betti[2], 0] if betti else None
    if not betti or report.cohomology_ddr != expect or not report.passed:
        print(f"cohomology mismatch: discrete {report.cohomology_ddr} vs "
              f"CW-derived {expect}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_verify(args) -> int:
    mesh = _load_source(args)
    k = _check_degree(args.degree)
    orient = compute_orientation(mesh)
    if args.inject_fault:
        orient = corrupt_orientation(orient, args.inject_fault)
    selection = None if args.checks is None else args.checks.split(",")
    opts = RankOptions(rel_tol=args.rank_tol, seed=args.seed)
    report = run_all(mesh, orient, k, selection, opts, timestamp=_timestamp(args))
    if args.no_timestamp:
        report.strip_timing()
    _emit(report.as_dict(), args.out)
    for c in report.checks:
        status = "pass" if c.passed else ("error" if c.error else "FAIL")
        res = "" if c.residual is None else f" residual={c.residual:.3e}"
        print(f"[{status}] {c.name}{res}", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "mesh":
            return cmd_mesh(args)
        if args.command == "cohomology":
            return cmd_cohomology(args)
        return cmd_verify(args)
    except (InputError, OSError) as exc:   # OSError: a missing, unreadable or directory path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnicodeDecodeError as exc:
        print(f"error: input file is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DdrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def run() -> None:
    """The process entry: :func:`main`, then exit without freeing the object
    graph.  ``gc.freeze`` moves every tracked object out of the collector's
    reach, so the collection at interpreter shutdown skips them and the
    operating system reclaims their memory; streams are still flushed and
    ``atexit`` handlers still run."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
