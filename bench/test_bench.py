"""Tests of the benchmark itself: metric names, gates, seeding, tracing."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from eightblocks import composability, graphs  # noqa: E402
from eightblocks.instances import Instance  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_follow_the_contract():
    spec = _spec()
    e2e, per_layer = spec["end_to_end"], spec["per_layer"]
    names = [m["name"] for m in e2e + per_layer] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for m in e2e + per_layer:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in e2e}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # the file and the code that prints the metrics agree
    assert [(m["name"], m["unit"]) for m in e2e] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in per_layer] == list(layers.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }


def _tiny_search(expect_status):
    # a one-cube instance composes nothing, so this search is 'sat' at once
    return workloads.Search(
        "tiny", "gate test", "eightblocks.experiments", (),
        run=workloads.max_infeasible(1),
        call=("run_max_infeasible", 1, "capped"),
        expect_status=expect_status,
    )


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_wrong_expected_verdict_fails_the_run(capsys):
    argv = ["--workload", "tiny", "--seconds", "0"]
    assert run.main(argv, registry={"tiny": _tiny_search("sat")}) == 0
    assert _last_json(capsys)["failed"] == 0

    assert run.main(argv, registry={"tiny": _tiny_search("unsat")}) == 1
    out = _last_json(capsys)
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] >= 1


def test_seed_changes_the_check_stream_and_nothing_else():
    for name, w in workloads.WORKLOADS.items():
        assert w.inputs(1) == w.inputs(1)
        if name == "check":
            assert w.inputs(1) != w.inputs(2)
        else:
            assert w.inputs(1) == w.inputs(2)
    stream = workloads.check_stream(7)
    large = [c for c in stream if min(c.values()) > 8]  # small counts stop at 8
    assert len(stream) == workloads.CHECK_BATCH
    assert len(large) == workloads.CHECK_BATCH // workloads.LARGE_EVERY


def test_tracer_rebinds_aliases_and_restores_them():
    original = graphs.tree_component_count
    tracer = Tracer(layers.BOUNDARIES)
    tracer.install()
    try:
        assert composability._tree_count_raw is not original
        composability.is_composable_treecount(Instance.from_pairs({(1, 2): 3}), (1, 2))
    finally:
        tracer.uninstall()
    assert composability._tree_count_raw is original
    assert graphs.tree_component_count is original
    assert tracer.records["graphs.tree"].calls == 1
    outer = tracer.records["composability.treecount"]
    assert outer.self_time < outer.total


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
