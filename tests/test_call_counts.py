"""Deterministic Python call counts: the census script and the speech path's budget."""

import importlib.util
import json
import os
import sys

import pytest

import flowbot
from flowbot.flowcore import GraphRunner
from flowbot.harness import load_scenario, reference_pipeline, run_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("opcounts", os.path.join(ROOT, "scripts", "opcounts.py"))
opcounts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(opcounts)

# Python calls into flowbot's own code per audio chunk on the demo scenario,
# build and report included: 26.975 (1079 calls for 40 chunks) on Python 3.11.
# Python 3.12 inlines list and dict comprehensions and counts fewer. The
# slack is less than one call per window (13 windows), so a hop that comes
# back on the per-chunk or the per-window path crosses it.
CALLS_PER_CHUNK = 27.25


def test_the_census_repeats_and_counts_each_added_call_once(tmp_path, monkeypatch):
    workload = opcounts.load("executor_fanout", 3, 200, str(tmp_path))
    first, report = opcounts.count(workload)
    again, report_again = opcounts.count(workload)
    assert first == again and report == report_again
    assert set(first["calls"]) == set(first["opcodes"]) == {*opcounts.PACKAGES, "other", "total"}
    assert first["calls"]["total"] == sum(n for key, n in first["calls"].items() if key != "total")
    assert first["calls"]["flowcore"] > 0 and first["opcodes"]["flowcore"] > 0

    emits = sum(stream["pushed"] for stream in json.loads(report)["streams"].values())
    emit = GraphRunner.emit

    def forward(self, *args, **kwargs):
        return emit(self, *args, **kwargs)

    def noop():
        pass

    def forward_after_a_noop(self, *args, **kwargs):
        noop()
        return emit(self, *args, **kwargs)

    monkeypatch.setattr(GraphRunner, "emit", forward)
    wrapped, wrapped_report = opcounts.count(workload)
    monkeypatch.setattr(GraphRunner, "emit", forward_after_a_noop)
    with_noop, noop_report = opcounts.count(workload)
    assert report == wrapped_report == noop_report
    assert wrapped["calls"]["total"] - first["calls"]["total"] == emits
    assert with_noop["calls"]["total"] - wrapped["calls"]["total"] == emits
    added_opcodes = with_noop["opcodes"]["total"] - wrapped["opcodes"]["total"]
    assert added_opcodes > 0 and added_opcodes % emits == 0


def test_the_census_puts_back_the_tracer_it_found(tmp_path):
    workload = opcounts.load("executor_fanout", 3, 20, str(tmp_path))

    def sentinel(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(sentinel)
    try:
        opcounts.count(workload)
        found = sys.gettrace()
    finally:
        sys.settrace(previous)
    assert found is sentinel


def test_the_census_names_an_unknown_workload_and_a_bad_size(capsys):
    for target in ("speech", "speech_ref:abc", "speech_ref:0", "executor_fanout:-5", "speech_ref:inf"):
        with pytest.raises(SystemExit) as exc:
            opcounts.main([target])
        assert exc.value.code == 2
        assert repr(target.split(":")[-1]) in capsys.readouterr().err


def test_the_demo_scenario_stays_within_its_call_budget():
    scenario = load_scenario(os.path.join(os.path.dirname(flowbot.__file__), "configs", "demo_scenario.json"))
    graph = reference_pipeline()
    run_scenario(graph, scenario)  # warm: lazy imports and caches
    package = os.path.dirname(os.path.abspath(flowbot.__file__)) + os.sep
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    sys.setprofile(profile)
    try:
        doc = run_scenario(graph, scenario)
    finally:
        sys.setprofile(None)
    chunks = doc["streams"]["s_mic"]["pushed"]
    assert chunks == 40
    assert calls / chunks <= CALLS_PER_CHUNK, f"{calls} calls for {chunks} chunks"
