"""Self-tests of the benchmark: its checkers reject wrong outputs, and the
metrics it prints are the ones BENCHMARK.json declares.

Run from the repository root:

    python3 -m pytest -q bench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from checks import Op, check_op  # noqa: E402
from replay import Span  # noqa: E402
from workloads import KNOWN_DEFECT  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text())

EXACT = Op("exact", ("exact", "-r", "4", "-k", "2,2,2,2,2,2,2,2", "--workers", "1"),
           r=4, k=(2,) * 8, seed=0)
VERIFY = Op("verify", ("verify", "-r", "4", "--workers", "1"), r=4, seed=0)
SAMPLE = Op("sample", ("sample", "-r", "3", "-k", "2,2,2,2,2,2", "--seed", "7"),
            r=3, k=(2,) * 6, seed=7)
# Columns as left-vertex sets.  In NO_CYCLE any two columns share exactly one
# vertex; in WITH_CYCLE columns 1 and 2 share vertices 1 and 2.
NO_CYCLE = ({1, 2, 3}, {1, 4, 5}, {2, 4, 6}, {3, 5, 6})
WITH_CYCLE = ({1, 2, 3}, {1, 2, 4}, {3, 5, 6}, {4, 5, 6})


def exact_stdout(**changes) -> str:
    out = {"r": EXACT.r, "k": list(EXACT.k)}
    out.update(GOLDEN["reports"]["4:2,2,2,2,2,2,2,2"], **changes)
    return json.dumps(out)


def sample_stdout(cols) -> str:
    edges = sorted([j, i + 1] for i, col in enumerate(cols) for j in col)
    return json.dumps({
        "graph": {"n_left": 6, "n_right": len(cols), "edges": edges},
        "meta": {"seed": 7, "steps": 1, "rejections": 0, "bplus_rejections": 0,
                 "restarts": 0, "d_trajectory": [1, 0]},
    })


def test_golden_outputs_pass():
    assert check_op(EXACT, 0, exact_stdout(), GOLDEN) is None
    assert check_op(VERIFY, 0, json.dumps(GOLDEN["verify"]["4"]), GOLDEN) is None
    assert check_op(SAMPLE, 0, sample_stdout(NO_CYCLE), GOLDEN) is None


def test_changed_count_is_rejected():
    assert check_op(EXACT, 0, exact_stdout(count_b="44731"), GOLDEN) is not None
    verify = json.loads(json.dumps(GOLDEN["verify"]["4"]))
    verify["rows"][-1]["count_l"] = str(int(verify["rows"][-1]["count_l"]) + 1)
    assert check_op(VERIFY, 0, json.dumps(verify), GOLDEN) is not None


def test_graph_with_four_cycle_is_rejected():
    problem = check_op(SAMPLE, 0, sample_stdout(WITH_CYCLE), GOLDEN)
    assert problem is not None and "4-cycle" in problem


def test_non_conforming_graph_is_rejected():
    moved = ({1, 2, 3}, {1, 4, 5}, {2, 4, 6}, {3, 5, 1})  # vertex 1 has degree 3
    problem = check_op(SAMPLE, 0, sample_stdout(moved), GOLDEN)
    assert problem is not None and "degrees" in problem


def test_op_that_exits_1_is_rejected():
    from linhyper.cli import main as cli_main

    rc, out, err = run.invoke(cli_main, KNOWN_DEFECT)
    assert rc == 1
    op = Op("verify", KNOWN_DEFECT, r=2, seed=0)
    assert check_op(op, rc, out, GOLDEN) == "exit 1"


def test_girth_outside_band_is_rejected():
    op = Op("girth", (), r=3, k=(2,) * 30, seed=5, trials=200)
    out = {"p_hat": 0.37, "ci_halfwidth": 0.07, "trials": 200,
           "predicted": 0.36787944117144233, "seed": 5, "workers": 1, "rejections": 9}
    assert check_op(op, 0, json.dumps(out), GOLDEN) is None
    out["p_hat"] = 0.9
    assert check_op(op, 0, json.dumps(out), GOLDEN) is not None


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    spans = [Span("exact_oracle.enumerate_all", 0, 0.0, 1.0, {"graphs": 5})]
    assert set(run.layer_metrics(spans, [0.5], 2.0, 3.0)) == set(run.PER_LAYER)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "girth_mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
