"""The package namespace imports each module on first use.

Each check runs in a fresh interpreter: this one has imported every module
already, so nothing in-process can show what ``import ddrcomplex`` loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import ddrcomplex
from ddrcomplex import build_voxel_mesh, builtin_pattern, save_mesh

PACKAGE = Path(ddrcomplex.__file__).resolve().parent


def _fresh(code: str, *argv: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this package."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ddrcomplex'))"


def test_import_loads_no_submodule():
    assert _fresh(f"import sys, ddrcomplex; ddrcomplex.__version__; {LOADED}") == "['ddrcomplex']"


def test_loading_and_orienting_a_mesh_loads_only_errors_and_mesh(tmp_path):
    path = tmp_path / "ring.json"
    save_mesh(build_voxel_mesh(builtin_pattern("ring")), str(path))
    code = f"import sys, ddrcomplex as d; d.compute_orientation(d.load_mesh(sys.argv[1])); {LOADED}"
    assert _fresh(code, str(path)) == "['ddrcomplex', 'ddrcomplex.errors', 'ddrcomplex.mesh']"


def test_every_public_name_is_its_defining_module_attribute():
    code = ("import importlib, ddrcomplex as d; "
            "print([n for n in d.__all__ if getattr(d, n) is not "
            "getattr(importlib.import_module(getattr(d, n).__module__), n)])")
    assert _fresh(code) == "[]"


def test_star_import_binds_exactly_all():
    code = ("import ddrcomplex; ns = {}; exec('from ddrcomplex import *', ns); "
            "print(sorted(set(ns) - {'__builtins__'}) == sorted(ddrcomplex.__all__))")
    assert _fresh(code) == "True"


def test_dir_lists_every_public_name():
    assert _fresh("import ddrcomplex as d; print(set(d.__all__) <= set(dir(d)))") == "True"


def test_submodules_resolve_as_attributes():
    names = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    code = ("import sys, ddrcomplex as d; d.verification.FAMILIES; "
            "print([n for n in sys.argv[1:] if getattr(d, n) is not sys.modules[f'ddrcomplex.{n}']])")
    assert _fresh(code, *names) == "[]"


def test_unknown_name_raises_the_standard_attribute_error():
    code = ("import ddrcomplex\ntry:\n    ddrcomplex.nope\n"
            "except AttributeError as exc:\n    print(exc)")
    assert _fresh(code) == "module 'ddrcomplex' has no attribute 'nope'"
