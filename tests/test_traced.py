"""The traced benchmark request patches names inside the package: pin its contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# spans every traced request records
COMMON = {
    "homology.betti", "homology.cochain", "homology.generators.h1", "homology.generators.h2",
    "layouts.build", "lifting.lift.h1", "lifting.lift.h2", "lifting.extension.Xcurl",
    "mesh.orientation", "quadrature.rules", "operators.low",
    "operators.global.gradient", "operators.global.curl", "operators.global.divergence",
    "operators.local.edge", "operators.local.face_grad", "operators.local.cell_grad",
    "operators.local.face_curl", "operators.local.cell_curl", "operators.local.cell_div",
    "verification.family.cohomology", "verification.family.generators",
    "verification.rank.gradient", "verification.rank.curl", "verification.rank.divergence",
}
VERIFY = COMMON | {
    "lifting.extension.Xgrad", "lifting.extension.Xdiv", "lifting.extension.Pk",
    "lifting.reduction", "verification.family.complex", "verification.family.cochain",
    "verification.family.zero_reduction", "verification.family.closed_forms",
    "verification.family.consistency",
}
# the cohomology certificate reads the reductions (its red_* premises)
COHOMOLOGY = COMMON | {"cli.generator_fields", "vtkio.write", "lifting.reduction"}


@pytest.mark.parametrize("argv,spans", [
    (["verify", "--builtin", "ring", "--degree", "1"], VERIFY),
    (["cohomology", "--builtin", "ring", "--degree", "1", "--generators", "g.vtk"], COHOMOLOGY),
], ids=["verify", "cohomology"])
def test_traced_request_records_every_span(tmp_path, argv, spans):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), "--spans", "spans.json", "--",
         *argv, "--out", "report.json", "--no-timestamp"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=tmp_path,
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "spans.json").read_text())
    assert doc["rc"] == 0
    assert {span[0] for span in doc["spans"]} == spans
    assert len(spans) == {"verify": 34, "cohomology": 28}[argv[0]]
