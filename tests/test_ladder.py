"""tools/ladder.py on one tiny cell, with this checkout on both sides."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ladder", ROOT / "tools" / "ladder.py")
ladder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ladder)


def test_ladder_times_one_tiny_cell(tmp_path):
    (cell,) = ladder.run_cells(ladder.Ladder(ROOT / "src", tmp_path, ladder.BUDGET),
                               [("tunnel4", 1)])
    assert (cell["mesh"], cell["degree"], cell["status"]) == ("tunnel4", 1, "ok")
    assert cell["same_report"]
    for side in ("parent", "change"):
        assert cell[side]["rc"] == [0] * ladder.PAIRS
        assert all(len(cell[side][key]) == ladder.PAIRS and min(cell[side][key]) > 0
                   for key in ("wall_s", "cpu_s", "peak_mb", "ref_s"))
    assert {"delta_wall_ms", "delta_cpu_ms", "delta_wall_ref", "delta_peak_mb"} <= set(cell)
    json.dumps(cell)


def test_ladder_skips_cells_over_budget(tmp_path):
    # the first request is stopped; the larger cell of its degree is not run
    cells = ladder.run_cells(ladder.Ladder(ROOT / "src", tmp_path, budget=0.05),
                             [("tunnel4", 0), ("tunnel6", 0), ("cavity", 1)])
    assert [c["status"] for c in cells] == ["skipped"] * 3
    assert cells[0]["reason"] == "a parent request ran over 0.05 s"
    assert cells[1]["reason"] == "a smaller cell of this degree ran over the budget"
