"""The README's library sketch runs, and the API its comments name exists."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ddrcomplex.sparse import CsrMatrix

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"


def _sketch() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library sketch\n", 1)[1]
    return re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs():
    code = _sketch()
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["report"].passed
    assert len(namespace["lifted"].vectors) == 1          # the ring has b1 = 1
    G = namespace["G"]
    comment = " ".join(line.split("#", 1)[1] for line in code.splitlines() if "#" in line)
    attributes = re.search(r"CsrMatrix: ((?:\w+, )+)", comment).group(1).split(", ")[:-1]
    methods = re.findall(r"(\w+)\(", comment)
    assert {"gather", "toarray", "diagonal"} <= set(methods)
    for name in attributes + methods:
        assert hasattr(G, name), name
    assert isinstance(G, CsrMatrix) and isinstance(G @ G.toarray().T[:, :2], np.ndarray)
    with pytest.raises(TypeError):         # no product of two sparse matrices
        G @ G
    # leading axes of rows and cols stack blocks
    rows, cols = np.arange(6).reshape(2, 3), np.arange(8).reshape(2, 4)
    assert np.array_equal(G.gather(rows, cols),
                          np.stack([G.gather(r, c) for r, c in zip(rows, cols)]))
    assert np.array_equal(G.gather(rows[0], cols[0]), G.toarray()[:3, :4])


def test_library_sketch_runs_in_a_fresh_interpreter():
    # the package loads its names on first use, which this interpreter has
    # already done for every one of them
    proc = subprocess.run([sys.executable, "-c", _sketch()], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
