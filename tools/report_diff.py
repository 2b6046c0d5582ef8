"""Compare the gated CLI outputs of this checkout with those of another tree.

Usage (from anywhere)::

    python3 tools/report_diff.py OTHER_SRC

``OTHER_SRC`` is the other tree's package source directory, the one that
holds ``ddrcomplex/`` (for a checkout of another commit, its ``src``).  Both
trees run every request of ``refactor_gate.py``, and their outputs are
compared request by request.

The exit code is 1 if anything that states a result differs: an exit code,
a stderr line once its ``residual=`` figure is dropped (this covers the
``error:`` lines), the check names, a check's ``passed`` or error, the
report's ``passed``, an operator rank, ``dims``, ``betti_cw``,
``cohomology_ddr``, the generator count of a cohomology index, or the keys
of a generator or an integer generator certificate.  Otherwise it is 0: a
change that moves only roundoff exits 0.

Either way it prints the outputs whose bytes differ, the worst change of
each numeric field (residuals per check family and generator
``kernel_residual`` as |delta|; ``sigma_max``, ``tau`` and ``gap`` as
|delta| over the larger value, infinite when a gap moves between infinite
and finite; generator vectors and VTK values as
max|delta v| / max|v|) with the request where it occurred, and every detail
text that changed, such as the figures of ``cohomology.spectral_gaps`` or
the place a failing row names (``largest at face 0``).
"""

from __future__ import annotations

import json
import math
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from refactor_gate import SRC, _runs, write_outputs  # noqa: E402


def load(out: Path) -> dict[str, dict]:
    """The outputs ``write_outputs`` left in ``out``, per request name: exit
    code, stderr text, parsed report and VTK text (None when not written)."""
    runs = {}
    for name, _, _ in _runs():
        report, vtk = out / f"{name}.json", out / f"{name}.vtk"
        runs[name] = {
            "rc": int((out / f"{name}.rc").read_text()),
            "stderr": (out / f"{name}.stderr").read_text(encoding="utf-8"),
            "report": json.loads(report.read_text(encoding="utf-8")) if report.exists() else None,
            "vtk": vtk.read_text(encoding="utf-8") if vtk.exists() else None,
        }
    return runs


def _relative(a, b) -> float:
    """max|a - b| / max|a| of two equally long sequences of numbers."""
    a, b = [float(x) for x in a], [float(x) for x in b]
    scale = max((abs(x) for x in a), default=0.0)
    delta = max((abs(x - y) for x, y in zip(a, b)), default=0.0)
    return delta / scale if scale else delta


def _ratio(a, b) -> float:
    """|a - b| over the larger of |a|, |b|; None stands for an infinite gap,
    and a move between an infinite and a finite value is an infinite change."""
    a, b = (float("inf") if x is None else float(x) for x in (a, b))
    if a == b:
        return 0.0
    if math.isinf(a) or math.isinf(b):
        return float("inf")
    return abs(a - b) / max(abs(a), abs(b))


def _tokens(text: str) -> list:
    """The words of a text, each number as a float."""
    out = []
    for tok in text.split():
        try:
            out.append(float(tok))
        except ValueError:
            out.append(tok)
    return out


class Comparison:
    """Differences between two sets of outputs: ``problems`` (results that
    differ), ``worst`` (numeric field -> (largest change, request)) and
    ``texts`` (other detail texts that changed)."""

    def __init__(self):
        self.problems: list[str] = []
        self.worst: dict[str, tuple[float, str]] = {}
        self.texts: list[str] = []

    def equal(self, run: str, what: str, ours, theirs) -> bool:
        if ours != theirs:
            self.problems.append(f"{run}: {what} {theirs!r} -> {ours!r}")
        return ours == theirs

    def change(self, field: str, value: float, run: str) -> None:
        if value > self.worst.get(field, (0.0, ""))[0]:
            self.worst[field] = (value, run)

    def report(self, run: str, ours: dict, theirs: dict) -> None:
        for key in ("passed", "dims", "betti_cw", "cohomology_ddr"):
            self.equal(run, key, ours.get(key), theirs.get(key))
        if self.equal(run, "ranked operators", sorted(ours["ranks"]), sorted(theirs["ranks"])):
            for op, mine in ours["ranks"].items():
                other = theirs["ranks"][op]
                self.equal(run, f"rank of {op}", mine["rank"], other["rank"])
                for key in ("sigma_max", "tau", "gap"):
                    self.change(f"ranks.{key}", _ratio(mine[key], other[key]), run)
        names = [c["name"] for c in ours["checks"]]
        if self.equal(run, "check names", names, [c["name"] for c in theirs["checks"]]):
            for mine, other in zip(ours["checks"], theirs["checks"]):
                name = mine["name"]
                self.equal(run, f"{name} passed", mine["passed"], other["passed"])
                self.equal(run, f"{name} error", mine.get("error"), other.get("error"))
                a, b = mine.get("detail", ""), other.get("detail", "")
                if a != b:
                    self.texts.append(f"{run}: {name}: {b!r} -> {a!r}")
                if mine["residual"] is not None and other["residual"] is not None:
                    self.change(f"residual {name.split('.')[0]}",
                                abs(mine["residual"] - other["residual"]), run)
                else:
                    self.equal(run, f"{name} residual", mine["residual"], other["residual"])
        self.generators(run, ours.get("generators", []), theirs.get("generators", []))

    def generators(self, run: str, ours: list[dict], theirs: list[dict]) -> None:
        def count(gens):
            return {i: sum(g["cohomology_index"] == i for g in gens)
                    for i in sorted({g["cohomology_index"] for g in gens})}

        if not self.equal(run, "generator counts", count(ours), count(theirs)):
            return
        for j, (mine, other) in enumerate(zip(ours, theirs)):
            self.equal(run, f"generator {j} keys", sorted(mine), sorted(other))
            for key, value in mine.items():
                if key not in other:
                    continue
                if key == "vector":
                    if self.equal(run, f"generator {j} length", len(value), len(other[key])):
                        self.change("generators.vector", _relative(other[key], value), run)
                elif isinstance(value, float):
                    self.change(f"generators.{key}", abs(value - other[key]), run)
                else:
                    self.equal(run, f"generator {j} {key}", value, other[key])

    def vtk(self, run: str, ours: str, theirs: str) -> None:
        # the mesh part and the words of the cell data must agree; its values may move
        (mesh, _, data), (other_mesh, _, other_data) = (
            text.partition("CELL_DATA") for text in (ours, theirs))
        a, b = _tokens(data), _tokens(other_data)
        if self.equal(run, "VTK mesh", mesh, other_mesh) and self.equal(
                run, "VTK fields", [t for t in a if isinstance(t, str)] + [len(a)],
                [t for t in b if isinstance(t, str)] + [len(b)]):
            self.change("vtk", _relative([t for t in b if isinstance(t, float)],
                                         [t for t in a if isinstance(t, float)]), run)


def compare(ours: dict[str, dict], theirs: dict[str, dict]) -> Comparison:
    """Compare two :func:`load` results, ``ours`` against ``theirs``."""
    out = Comparison()
    if not out.equal("all", "requests", sorted(ours), sorted(theirs)):
        return out
    for run, mine in ours.items():
        other = theirs[run]
        out.equal(run, "exit code", mine["rc"], other["rc"])
        out.equal(run, "stderr", [re.sub(r" residual=\S+", "", line)
                                  for line in mine["stderr"].splitlines()],
                  [re.sub(r" residual=\S+", "", line) for line in other["stderr"].splitlines()])
        if out.equal(run, "report written", mine["report"] is None, other["report"] is None) \
                and mine["report"] is not None:
            out.report(run, mine["report"], other["report"])
        if out.equal(run, "VTK written", mine["vtk"] is None, other["vtk"] is None) \
                and mine["vtk"] is not None:
            out.vtk(run, mine["vtk"], other["vtk"])
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "ddrcomplex").is_dir():
        print("usage: report_diff.py OTHER_SRC (a directory holding ddrcomplex/)",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        ours_dir, theirs_dir = Path(a), Path(b)
        write_outputs(SRC, ours_dir)
        write_outputs(Path(argv[0]).resolve(), theirs_dir)
        files = sorted(p.name for p in ours_dir.iterdir())
        moved = [f for f in files if not (theirs_dir / f).exists()
                 or (theirs_dir / f).read_bytes() != (ours_dir / f).read_bytes()]
        result = compare(load(ours_dir), load(theirs_dir))
    print(f"outputs: {len(files)}, byte-identical: {len(files) - len(moved)}, moved: {len(moved)}")
    for name in moved:
        print(f"  moved {name}")
    for field, (value, run) in sorted(result.worst.items()):
        print(f"worst {field}: {value:.2e} ({run})" if value else f"worst {field}: 0")
    for line in result.texts:
        print(f"text {line}")
    for line in result.problems:
        print(f"DIFFERS {line}")
    return 1 if result.problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
