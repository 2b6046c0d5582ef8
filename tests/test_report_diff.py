"""tools/report_diff.py: which output differences fail the comparison."""

import copy
import importlib.util
import math
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def report_diff():
    sys.path.insert(0, str(TOOLS))
    try:
        spec = importlib.util.spec_from_file_location("report_diff", TOOLS / "report_diff.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TOOLS))
    return module


VTK = ("# vtk DataFile Version 2.0\ncohomology\nASCII\nDATASET UNSTRUCTURED_GRID\n"
       "POINTS 2 double\n0 0 0\n1 0 0\nCELL_DATA 1\nFIELD cohomology 1\n"
       "h1_generator_0 3 1 double\n0.5 -0.25 2\n")


def _outputs():
    checks = [
        {"name": "complex.curl_grad", "passed": True, "residual": 3e-16, "tolerance": 1e-10,
         "seconds": 0.0},
        {"name": "cohomology.spectral_gaps", "passed": True, "residual": None,
         "tolerance": None, "seconds": 0.0,
         "detail": "rank gaps gradient: 1.9e+14, curl: 1.1e+14, divergence: inf"},
        {"name": "consistency.face_gradient", "passed": True, "residual": 5e-15,
         "tolerance": 1e-9, "seconds": 0.0},
    ]
    report = {
        "dims": {"Xgrad": 112, "Xcurl": 216}, "betti_cw": [1, 1, 0, 0],
        "cohomology_ddr": [0, 1, 0, 0], "passed": True, "checks": checks,
        "ranks": {"curl": {"rank": 136, "sigma_max": 30.2, "tau": 1.9e-12, "gap": 1.1e14}},
        "generators": [{"space": "Xcurl", "degree": 1, "cohomology_index": 1,
                        "vector": [0.0, 1.0, -2.0], "kernel_residual": 1.2e-15,
                        "independence_rank": 144, "image_rank": 143}],
    }
    stderr = "[pass] complex.curl_grad residual=3.000e-16\n[pass] cohomology.spectral_gaps\n"
    return {"verify-ring-k1": {"rc": 0, "stderr": stderr, "report": report, "vtk": VTK}}


def _changed(edit):
    out = _outputs()
    edit(out["verify-ring-k1"])
    return out


def test_identical_outputs_agree(report_diff):
    result = report_diff.compare(_outputs(), _outputs())
    assert result.problems == [] and result.texts == []
    assert all(value == 0.0 for value, _ in result.worst.values())


def _set(path, value):
    def edit(run):
        node = run
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


@pytest.mark.parametrize("edit,what", [
    (_set(("rc",), 1), "exit code"),
    (_set(("stderr",), "error: mesh file not found\n"), "stderr"),
    (_set(("report", "checks", 0, "passed"), False), "complex.curl_grad passed"),
    (_set(("report", "checks", 0, "name"), "complex.div_curl"), "check names"),
    (_set(("report", "checks", 0, "error"), "ConditioningError: x"), "complex.curl_grad error"),
    (_set(("report", "passed"), False), "passed"),
    (_set(("report", "ranks", "curl", "rank"), 135), "rank of curl"),
    (_set(("report", "dims", "Xcurl"), 215), "dims"),
    (_set(("report", "betti_cw"), [1, 0, 0, 0]), "betti_cw"),
    (_set(("report", "cohomology_ddr"), [0, 0, 0, 0]), "cohomology_ddr"),
    (_set(("report", "generators"), []), "generator counts"),
    (_set(("report", "generators", 0, "image_rank"), 142), "generator 0 image_rank"),
    (_set(("report",), None), "report written"),
    (_set(("vtk",), VTK.replace("1 0 0\n", "1 0 1e-16\n")), "VTK mesh"),
    (_set(("vtk",), VTK.replace("FIELD cohomology 1", "FIELD potentials 1")), "VTK fields"),
])
def test_result_changes_are_problems(report_diff, edit, what):
    result = report_diff.compare(_changed(edit), _outputs())
    assert [p.split(": ", 1)[1].startswith(what) for p in result.problems] == [True], \
        result.problems


def test_a_changed_detail_of_a_passing_row_is_listed_not_failed(report_diff):
    # the argmax of a residual table at roundoff, as passing consistency rows
    # were once labelled, is no result: its change is a text
    theirs = _changed(_set(("report", "checks", 2, "detail"),
                           "worst: monomial x^0 y^2 z^0, face 8"))
    result = report_diff.compare(_outputs(), theirs)
    assert result.problems == []
    assert result.texts == ["verify-ring-k1: consistency.face_gradient: "
                            "'worst: monomial x^0 y^2 z^0, face 8' -> ''"]


def test_roundoff_changes_are_reported_not_failed(report_diff):
    def edit(run):
        run["stderr"] = run["stderr"].replace("3.000e-16", "3.100e-16")
        report = run["report"]
        report["checks"][0]["residual"] = 3.1e-16
        report["checks"][1]["detail"] = report["checks"][1]["detail"].replace("1.1e+14",
                                                                              "1.0e+14")
        report["ranks"]["curl"]["gap"] = 1.0e14
        report["generators"][0]["vector"] = [1e-17, 1.0, -2.0]
        run["vtk"] = VTK.replace("0.5 -0.25 2", "0.5 -0.25 2.0000000000000004")

    result = report_diff.compare(_changed(edit), _outputs())
    assert result.problems == []
    assert [t.split(": ")[1] for t in result.texts] == ["cohomology.spectral_gaps"]
    worst = {field: value for field, (value, _) in result.worst.items()}
    assert worst["residual complex"] == pytest.approx(1e-17)
    assert worst["ranks.gap"] == pytest.approx(0.1 / 1.1)
    assert worst["generators.vector"] == pytest.approx(0.5e-17)
    assert worst["vtk"] == pytest.approx(2.2e-16, rel=0.1)
    assert result.worst["vtk"][1] == "verify-ring-k1"


@pytest.mark.parametrize("ours,theirs", [(None, 1.1e14), (1.1e14, None)])
def test_a_gap_between_infinite_and_finite_is_an_infinite_change(report_diff, ours, theirs):
    # an infinite gap is written as null; its move to a finite gap is reported
    def gap(value):
        return _changed(_set(("report", "ranks", "curl", "gap"), value))

    result = report_diff.compare(gap(ours), gap(theirs))
    assert result.problems == []
    assert result.worst["ranks.gap"] == (math.inf, "verify-ring-k1")
    assert report_diff._ratio(None, None) == 0.0


@pytest.mark.parametrize("edit", [
    lambda gen: gen.pop("image_rank"),                      # a key dropped on our side
    lambda gen: gen.update(condition=3.5),                  # a float key only on our side
], ids=["dropped", "added"])
def test_generator_keys_must_agree(report_diff, edit):
    def change(run):
        edit(run["report"]["generators"][0])

    result = report_diff.compare(_changed(change), _outputs())
    assert [p.split(": ", 1)[1].startswith("generator 0 keys") for p in result.problems] == \
        [True], result.problems


def test_missing_request_is_a_problem(report_diff):
    ours = _outputs()
    ours["verify-ring-k2"] = ours["verify-ring-k1"]
    assert report_diff.compare(ours, _outputs()).problems == [
        "all: requests ['verify-ring-k1'] -> ['verify-ring-k1', 'verify-ring-k2']"]
