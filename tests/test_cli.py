"""CLI integration: subcommands, exit-code contract, golden reports, VTK export."""

import ast
import collections
import gc
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import ddrcomplex
from ddrcomplex import cli, lifting
from ddrcomplex.cli import main
from ddrcomplex.operators import DdrComplex

from conftest import (
    DOUBLED_FACES,
    MALFORMED,
    OPEN_ELEMENTS,
    doubled_face_document,
    malformed_cube_document,
    open_element_document,
)


def run_cli(*argv):
    return main(list(argv))


def test_mesh_builtin(tmp_path, capsys):
    out = tmp_path / "cube.json"
    assert run_cli("mesh", "--builtin", "cube", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert len(doc["vertices"]) == 8
    assert len(doc["faces"]) == 6
    assert len(doc["elements"]) == 1
    assert "8 vertices" in capsys.readouterr().out


def test_mesh_pattern_file(tmp_path):
    pattern = tmp_path / "ring.txt"
    pattern.write_text("###\n#.#\n###\n")
    out = tmp_path / "ring.json"
    assert run_cli("mesh", "--pattern", str(pattern), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert len(doc["vertices"]) == 32


def test_mesh_disconnected_pattern_exit_2(tmp_path, capsys):
    pattern = tmp_path / "bad.txt"
    pattern.write_text("#.#\n")
    assert run_cli("mesh", "--pattern", str(pattern), "--out", str(tmp_path / "x.json")) == 2
    assert "disconnected" in capsys.readouterr().err


def test_missing_mesh_file_exit_2(tmp_path):
    assert run_cli("verify", "--mesh", str(tmp_path / "nope.json"), "--degree", "0") == 2


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_mesh_document_exit_2(tmp_path, capsys, case):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(malformed_cube_document(case)))
    assert run_cli("verify", "--mesh", str(path), "--degree", "0", "--checks", "complex",
                   "--out", str(tmp_path / "r.json")) == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("case", OPEN_ELEMENTS)
def test_open_element_exit_2(tmp_path, capsys, case):
    path = tmp_path / "open.json"
    path.write_text(json.dumps(open_element_document(case)))
    assert run_cli("verify", "--mesh", str(path), "--degree", "0",
                   "--out", str(tmp_path / "r.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert re.match(OPEN_ELEMENTS[case], err.removeprefix("error: ").rstrip("\n"))


@pytest.mark.parametrize("case", DOUBLED_FACES)
def test_doubled_face_exit_2(tmp_path, capsys, case):
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps(doubled_face_document(case)))
    assert run_cli("verify", "--mesh", str(path), "--degree", "1",
                   "--out", str(tmp_path / "r.json")) == 2
    assert capsys.readouterr().err == "error: face 11 has the same edges as face 1\n"
    assert not (tmp_path / "r.json").exists()


def test_bad_degree_exit_2(tmp_path):
    assert run_cli("verify", "--builtin", "cube", "--degree", "9",
                   "--out", str(tmp_path / "r.json")) == 2


def test_cohomology_ring(tmp_path):
    out = tmp_path / "rep.json"
    assert run_cli("cohomology", "--builtin", "ring", "--degree", "1",
                   "--out", str(out), "--no-timestamp") == 0
    doc = json.loads(out.read_text())
    assert doc["cohomology_ddr"] == [0, 1, 0, 0]
    assert doc["betti_cw"] == [1, 1, 0, 0]
    assert "timestamp" not in doc


def test_cohomology_cube_trivial(tmp_path):
    out = tmp_path / "rep.json"
    assert run_cli("cohomology", "--builtin", "cube", "--degree", "2",
                   "--out", str(out), "--no-timestamp") == 0
    assert json.loads(out.read_text())["cohomology_ddr"] == [0, 0, 0, 0]


def test_cohomology_generators_vtk(tmp_path):
    out = tmp_path / "rep.json"
    vtk = tmp_path / "gen.vtk"
    assert run_cli("cohomology", "--builtin", "cavity", "--degree", "0",
                   "--generators", str(vtk), "--out", str(out), "--no-timestamp") == 0
    doc = json.loads(out.read_text())
    gens = doc["generators"]
    assert len(gens) == 1 and gens[0]["cohomology_index"] == 2
    text = vtk.read_text()
    assert text.startswith("# vtk DataFile Version 2.0")
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert "POINTS 64 double" in text
    assert "CELL_DATA 26" in text
    assert "h2_generator_0 3 26 double" in text


def test_verify_pass_exit_0(tmp_path):
    assert run_cli("verify", "--builtin", "cube", "--degree", "1",
                   "--out", str(tmp_path / "r.json"), "--no-timestamp") == 0


def test_verify_selection(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("verify", "--builtin", "ring", "--degree", "2",
                   "--checks", "complex,cochain,cohomology",
                   "--out", str(out), "--no-timestamp") == 0
    names = {c["name"].split(".")[0] for c in json.loads(out.read_text())["checks"]}
    assert names == {"complex", "cochain", "cohomology"}


def test_verify_empty_selection_exit_2(tmp_path, capsys):
    # an empty --checks selects nothing, not every family
    out = tmp_path / "r.json"
    assert run_cli("verify", "--builtin", "cube", "--checks", "", "--out", str(out),
                   "--no-timestamp") == 2
    assert capsys.readouterr().err == ("error: unknown check families ['']; choose from "
                                       f"{list(ddrcomplex.verification.FAMILIES)}\n")
    assert not out.exists()


@pytest.mark.parametrize("fault", ["omega_tf", "omega_fe", "edge_length"])
def test_verify_fault_injection_exit_1(tmp_path, fault, capsys):
    out = tmp_path / "r.json"
    code = run_cli("verify", "--builtin", "cube", "--degree", "0",
                   "--inject-fault", fault, "--out", str(out), "--no-timestamp")
    assert code == 1
    doc = json.loads(out.read_text())
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    assert failed
    assert "FAIL" in capsys.readouterr().err or failed


@pytest.mark.parametrize("fault", ["omega_tf", "omega_fe", "edge_length"])
def test_fault_on_the_ring_at_degree_one_exit_1(tmp_path, fault):
    # every fault breaks a premise of the cohomology certificate, so the
    # report gives no ranks and no cohomology dimensions; a measure fault
    # breaks only the CW identification, which betti_match names, and so
    # does the row of the lifted H1 generator, whose independence rests on it
    out = tmp_path / "r.json"
    assert run_cli("verify", "--builtin", "ring", "--degree", "1", "--inject-fault", fault,
                   "--out", str(out), "--no-timestamp") == 1
    doc = json.loads(out.read_text())
    checks = {c["name"]: c for c in doc["checks"]}
    assert not checks["cohomology.betti_match"]["passed"]
    assert doc["ranks"] == {} and doc["cohomology_ddr"] == []
    if fault == "edge_length":
        assert checks["cohomology.betti_match"]["detail"].startswith(
            "premise cochain.cw_grad failed")
        assert checks["zero_reduction.exact"]["passed"]
        assert not checks["generators.h1"]["passed"]
        assert checks["generators.h1"]["detail"].startswith(
            "1 generator(s), expected 1; premise cochain.cw_grad failed")


def test_verify_golden_determinism(tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"r{i}.json"
        assert run_cli("verify", "--builtin", "cube", "--degree", "1",
                       "--checks", "complex,cohomology,closed_forms",
                       "--seed", "7", "--out", str(out), "--no-timestamp") == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_report_to_stdout(capsys):
    assert run_cli("cohomology", "--builtin", "cube", "--degree", "0",
                   "--no-timestamp") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degree"] == 0


def test_cohomology_generators_vtk_higher_degree(tmp_path):
    # exercises the curl potential proxy at degree 1 on the ring
    out = tmp_path / "rep.json"
    vtk = tmp_path / "gen.vtk"
    assert run_cli("cohomology", "--builtin", "ring", "--degree", "1",
                   "--generators", str(vtk), "--out", str(out), "--no-timestamp") == 0
    doc = json.loads(out.read_text())
    gens = doc["generators"]
    assert len(gens) == 1 and gens[0]["cohomology_index"] == 1
    assert gens[0]["kernel_residual"] <= 1e-9
    text = vtk.read_text()
    assert "h1_generator_0 3 8 double" in text


def test_cohomology_generators_reuse_the_report_session(tmp_path, monkeypatch):
    # the VTK fields come from the report's generators and complexes: one
    # complex per degree, one generator computation per cohomology index
    built = collections.Counter()
    init = DdrComplex.__init__

    def counting_init(self, mesh, orientation, degree, *args, **kwargs):
        built[degree] += 1
        init(self, mesh, orientation, degree, *args, **kwargs)

    calls = collections.Counter()
    generators = lifting.cohomology_generators

    def counting_generators(cc, index):
        calls[index] += 1
        return generators(cc, index)

    monkeypatch.setattr(DdrComplex, "__init__", counting_init)
    monkeypatch.setattr(lifting, "cohomology_generators", counting_generators)
    assert run_cli("cohomology", "--builtin", "ring", "--degree", "1",
                   "--generators", str(tmp_path / "gen.vtk"),
                   "--out", str(tmp_path / "rep.json"), "--no-timestamp") == 0
    assert built == {1: 1, 0: 1}
    assert calls == {1: 1, 2: 1}


def test_cohomology_without_betti_numbers_exit_1(tmp_path, monkeypatch):
    # an errored Betti computation leaves betti_cw empty; the CLI still answers
    from ddrcomplex import CertificationError, verification

    def failing_betti(cc):
        raise CertificationError("Betti numbers unavailable")

    monkeypatch.setattr(verification, "betti_numbers", failing_betti)
    out = tmp_path / "rep.json"
    assert run_cli("cohomology", "--builtin", "cube", "--degree", "0",
                   "--out", str(out), "--no-timestamp") == 1
    assert json.loads(out.read_text())["betti_cw"] == []


def test_failed_generator_check_writes_no_vtk(tmp_path, monkeypatch):
    from ddrcomplex import CertificationError, verification

    def failing_lift(high, low, index, **kwargs):
        raise CertificationError("lift refused")

    monkeypatch.setattr(verification, "lift_generators", failing_lift)
    vtk = tmp_path / "gen.vtk"
    assert run_cli("cohomology", "--builtin", "ring", "--degree", "0",
                   "--generators", str(vtk), "--out", str(tmp_path / "rep.json"),
                   "--no-timestamp") == 1
    assert not vtk.exists()


def test_cli_import_loads_no_scipy():
    # scipy.sparse alone costs more start-up than the whole package; keep it out
    code = ("import sys, ddrcomplex.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    src = os.path.dirname(os.path.dirname(os.path.abspath(ddrcomplex.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_cli_and_battery_load_no_fractions():
    # the exact calculus is over integers: no second exact number type
    code = ("import sys, ddrcomplex.cli; from ddrcomplex import *; "
            "mesh = build_voxel_mesh(builtin_pattern('ring')); "
            "assert run_all(mesh, compute_orientation(mesh), 1).passed; "
            "print('fractions' in sys.modules)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(ddrcomplex.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_cli_import_loads_no_dataclasses():
    # the package's records are named tuples and slotted classes: no
    # dataclasses import and no generated methods on the path of a request
    code = "import sys, ddrcomplex.cli; print('dataclasses' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(ddrcomplex.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_verify_request_loads_no_numpy_polynomial():
    # the Gauss rules come from the Legendre recurrence, not from
    # numpy.polynomial's eigenvalue rule, which costs its import on every request
    code = ("import os, sys, ddrcomplex.cli as cli; "
            "code = cli.main(['verify', '--builtin', 'ring', '--degree', '2', "
            "'--no-timestamp', '--out', os.devnull]); "
            "print(code, 'numpy.polynomial' in sys.modules)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(ddrcomplex.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 False"


def _cli_process(*argv):
    """The CLI run in a fresh interpreter, through its ``__main__`` block."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ddrcomplex.__file__)))
    return subprocess.run([sys.executable, "-m", "ddrcomplex.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)


def _cli_subprocess(*argv):
    """Exit code and stderr of the CLI run in a fresh interpreter."""
    proc = _cli_process(*argv)
    return proc.returncode, proc.stderr


def test_process_entry_prints_the_whole_report(tmp_path):
    # the process exits without freeing its objects, after stdout is flushed;
    # main() in-process writes the same report and leaves the collector alone
    argv = ["verify", "--builtin", "ring", "--degree", "1", "--no-timestamp"]
    proc = _cli_process(*argv)
    assert proc.returncode == 0, proc.stderr
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
    assert json.loads(proc.stdout) == json.loads((tmp_path / "r.json").read_text())
    assert proc.stdout == (tmp_path / "r.json").read_text()


@pytest.mark.parametrize("argv,code", [
    (["verify", "--builtin", "ring", "--degree", "0", "--inject-fault", "omega_tf"], 1),
    (["verify", "--mesh", "nope.json", "--degree", "0"], 2),
], ids=["failed_check", "missing_mesh"])
def test_process_entry_keeps_exit_codes_and_stderr(tmp_path, capsys, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    argv = argv + ["--no-timestamp", "--out", "r.json"]
    proc = _cli_process(*argv)
    assert main(argv) == code
    assert proc.returncode == code
    assert proc.stderr == capsys.readouterr().err


def test_process_entry_freezes_then_runs_exit_handlers():
    code = ("import atexit, gc, sys, ddrcomplex.cli as cli; "
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0)); "
            "sys.argv = ['ddrcomplex', 'verify', '--builtin', 'cube', '--checks', 'complex', "
            "'--out', sys.argv[1]]; cli.run()")
    src = os.path.dirname(os.path.dirname(os.path.abspath(ddrcomplex.__file__)))
    proc = subprocess.run([sys.executable, "-c", code, os.devnull], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout) == (0, "frozen True\n"), proc.stderr


def test_console_script_and_main_block_name_the_same_function():
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        script = tomllib.load(fh)["project"]["scripts"]["ddrcomplex"]
    module, _, name = script.partition(":")
    assert module == "ddrcomplex.cli" and callable(getattr(cli, name))
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (block,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert ast.unparse(block) == f"if __name__ == '__main__':\n    {name}()"


@pytest.mark.parametrize("spec,message", [
    ("omega_tf:999", "omega_tf: element index 999 out of range [0, 7]"),
    ("omega_tf:x", "omega_tf: element index 'x' is not an integer"),
    ("omega_fe:0:99", "omega_fe: local edge index 99 out of range [0, 3]"),
    ("edge_length:99999", "edge_length: edge index 99999 out of range [0, 63]"),
    ("edge_length:-1", "edge_length: edge index -1 out of range [0, 63]"),
])
def test_bad_fault_spec_exit_2(tmp_path, spec, message):
    code, err = _cli_subprocess("verify", "--builtin", "ring", "--degree", "0",
                                "--inject-fault", spec, "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("tol", ["-1", "0", "1", "nan", "inf"])
def test_rank_tolerance_outside_unit_interval_exit_2(tmp_path, tol):
    code, err = _cli_subprocess("cohomology", "--builtin", "ring", f"--rank-tol={tol}",
                                "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert "error: rank tolerance must lie strictly between 0 and 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["verify --mesh DIR", "verify --mesh BINARY", "mesh --pattern DIR",
                                  "mesh --pattern BINARY", "verify --out DIR"])
def test_unusable_path_exit_2(tmp_path, case):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe#\n")
    path = str(tmp_path if case.endswith("DIR") else binary)
    argv = {"verify --mesh": ["verify", "--mesh", path],
            "mesh --pattern": ["mesh", "--pattern", path, "--out", str(tmp_path / "m.json")],
            "verify --out": ["verify", "--builtin", "cube", "--checks", "complex", "--out", path],
            }[case.rsplit(" ", 1)[0]]
    code, err = _cli_subprocess(*argv)
    assert code == 2
    message = "Is a directory" if case.endswith("DIR") else "input file is not UTF-8 text"
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("size", ["nan", "inf"])
def test_non_finite_cell_size_exit_2(tmp_path, capsys, size):
    out = tmp_path / "m.json"
    assert run_cli("mesh", "--builtin", "cube", "--cell-size", size, "--out", str(out)) == 2
    assert f"error: cell size must be positive and finite, got {size}" in capsys.readouterr().err
    assert not out.exists()
