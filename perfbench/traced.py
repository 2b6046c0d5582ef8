"""One ddrcomplex CLI request, traced layer by layer from outside the package.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced.py --spans SPANS.json -- verify --degree 1 --mesh m.json ...

The arguments after ``--`` go unchanged to ``ddrcomplex.cli.main``, so the
traced request runs the CLI's own code in the CLI's own order, repeated work
included.  Before that, this script replaces public functions in the
namespaces the CLI and ``run_all`` call them through with
wrappers that record a span (name, start, end, parent) per call, and it
makes the verification session build its cached layers up front in
dependency order (layouts, quadrature rules, local operators per entity
kind, global operators, the degree-0 companion complex, numeric ranks),
each in its own span.  Spans stay in memory and are written with the
exit code and the exact counts to the ``--spans`` file when the request
ends.  Nothing inside ``src/ddrcomplex`` is modified.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

SPACES = ("Xgrad", "Xcurl", "Xdiv", "Pk")
OPERATORS = ("gradient", "curl", "divergence")
FAMILY_FUNCTIONS = {
    "complex": "check_complex", "cohomology": "check_cohomology",
    "cochain": "check_cochain_diagram", "zero_reduction": "check_zero_reduction",
    "closed_forms": "check_closed_forms", "consistency": "check_consistency",
    "generators": "check_generators",
}


class Tracer:
    """In-memory span recorder: each span is [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, fn, name, record=None):
        """``fn`` with a span per call; ``name`` may be a function of the arguments."""
        name_of = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name_of(*args, **kwargs), fn, *args, **kwargs)
            if record is not None:
                record(result)
            return result
        return traced

    def count_once(self, key: str, value) -> None:
        self.counts.setdefault(key, value)


def _selection(argv: list[str], cli, families) -> list[str]:
    args = cli.build_parser().parse_args(argv)
    if args.command == "cohomology":
        return ["cohomology"] + (["generators"] if args.generators else [])
    return args.checks.split(",") if args.checks else list(families)


def warm_session(s, tracer: Tracer, selection: list[str]) -> None:
    """Build the session's cached layers in dependency order, one span each.

    The three benchmark workloads use every layer warmed here: all three
    global operators (complex or cohomology family), the degree-0 complex
    when k > 0 (cochain family) and the ranks (cohomology family).
    """
    high, mesh, c = s.high, s.mesh, tracer.counts
    with tracer.span("layouts.build"):
        for sp in SPACES:
            c[f"operators.dofs.{sp}"] = high.layout(sp).total

    entities = (("edge", mesh.n_edges), ("face", mesh.n_faces), ("cell", mesh.n_elements))
    with tracer.span("quadrature.rules"):
        rules = [high.rule(kind, i) for kind, n in entities for i in range(n)]
    c["quadrature.rules"] = len(rules)
    c["quadrature.points"] = sum(len(r.weights) for r in rules)

    for name, build, n in (("edge", high.edge_ops, mesh.n_edges),
                           ("face_grad", high.face_grad_ops, mesh.n_faces),
                           ("cell_grad", high.cell_grad_ops, mesh.n_elements),
                           ("face_curl", high.face_curl_ops, mesh.n_faces),
                           ("cell_curl", high.cell_curl_ops, mesh.n_elements),
                           ("cell_div", high.cell_div_ops, mesh.n_elements)):
        with tracer.span(f"operators.local.{name}"):
            for i in range(n):
                build(i)
        c[f"operators.local.{name}"] = n

    for which in OPERATORS:
        mat = tracer.call(f"operators.global.{which}", high.operator, which)
        c[f"operators.global.{which}.nnz"] = int(mat.nnz)

    if s.k > 0:
        with tracer.span("operators.low"):
            for which in OPERATORS:
                s.low.operator(which)

    if "cohomology" in selection:
        gaps = []
        for which in OPERATORS:
            r = tracer.call(f"verification.rank.{which}", s.operator_rank, which)
            rows, cols = high.operator(which).shape
            c[f"verification.rank.{which}.rows"] = rows
            c[f"verification.rank.{which}.cols"] = cols
            if r.gap != float("inf"):
                gaps.append(r.gap)
        c["verification.rank.min_gap"] = min(gaps) if gaps else -1.0


def install(tracer: Tracer, argv: list[str]):
    """Wrap the public functions the CLI request calls; return ``cli.main``."""
    import ddrcomplex.cli as cli
    import ddrcomplex.lifting as lifting
    import ddrcomplex.verification as verification

    def record_cochain(cc):
        for i, d in enumerate((cc.d0, cc.d1, cc.d2)):
            tracer.count_once(f"homology.d{i}.rows", int(d.shape[0]))
            tracer.count_once(f"homology.d{i}.cols", int(d.shape[1]))

    for mod in (cli, verification, lifting):
        mod.build_cochain_complex = tracer.wrap(mod.build_cochain_complex, "homology.cochain",
                                                record_cochain)
        mod.betti_numbers = tracer.wrap(mod.betti_numbers, "homology.betti")
    lifting.cohomology_generators = tracer.wrap(
        lifting.cohomology_generators, lambda cc, i: f"homology.generators.h{i}")
    lift = tracer.wrap(lifting.lift_generators,
                       lambda high, low, index, **kw: f"lifting.lift.h{index}")
    lifting.lift_generators = verification.lift_generators = lift
    verification.reduction_matrix = tracer.wrap(verification.reduction_matrix,
                                                "lifting.reduction")
    lifting.ExtensionMaps.matrix = tracer.wrap(
        lifting.ExtensionMaps.matrix, lambda self, space: f"lifting.extension.{space}")
    for family, fn_name in FAMILY_FUNCTIONS.items():
        setattr(verification, fn_name,
                tracer.wrap(getattr(verification, fn_name), f"verification.family.{family}"))

    cli.load_mesh = tracer.wrap(cli.load_mesh, "mesh.load")
    cli.compute_orientation = tracer.wrap(cli.compute_orientation, "mesh.orientation")
    cli._generator_fields = tracer.wrap(cli._generator_fields, "cli.generator_fields")
    cli.write_vtk = tracer.wrap(cli.write_vtk, "vtkio.write")

    selection = _selection(argv, cli, verification.FAMILIES)

    class TracedSession(verification.VerifySession):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            warm_session(self, tracer, selection)

    verification.VerifySession = TracedSession
    return cli.main


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[1] != "--spans" or sys.argv[3] != "--":
        print("usage: traced.py --spans OUT.json -- <ddrcomplex CLI arguments>", file=sys.stderr)
        return 2
    out, argv = sys.argv[2], sys.argv[4:]
    tracer = Tracer()
    rc = install(tracer, argv)(argv)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
