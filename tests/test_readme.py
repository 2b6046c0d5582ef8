"""The README's library sketch runs, and the API its comments name exists."""

import re
from pathlib import Path

import numpy as np

from ddrcomplex.sparse import CsrMatrix

README = Path(__file__).resolve().parent.parent / "README.md"


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
    assert isinstance(G, CsrMatrix) and isinstance(G - G, CsrMatrix)
    assert isinstance(G @ G.toarray().T[:, :2], np.ndarray)
    # leading axes of rows and cols stack blocks
    rows, cols = np.arange(6).reshape(2, 3), np.arange(8).reshape(2, 4)
    assert np.array_equal(G.gather(rows, cols),
                          np.stack([G.gather(r, c) for r, c in zip(rows, cols)]))
    assert np.array_equal(G.gather(rows[0], cols[0]), G.toarray()[:3, :4])
