"""CLI integration: subcommands, exit-code contract, golden reports, VTK export."""

import collections
import json

import pytest

from ddrcomplex import lifting
from ddrcomplex.cli import main
from ddrcomplex.operators import DdrComplex


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
