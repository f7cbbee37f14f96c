"""The committed benchmark records: every ``BENCH_*.json`` summary follows from
its own result lines by the rule ``scripts/ab_pairs.py`` writes it with, and
every record since that script counted opcodes has an ``opcodes`` block of one
count line per side, workload and seed; and that script's ``--kernel`` pairs."""

import glob
import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))

_spec = importlib.util.spec_from_file_location("ab_pairs", os.path.join(ROOT, "scripts", "ab_pairs.py"))
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

BETTER = ab_pairs.end_to_end_metrics(ROOT)

_spec = importlib.util.spec_from_file_location("opcounts", os.path.join(ROOT, "scripts", "opcounts.py"))
opcounts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(opcounts)


def load_record(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# the records written before scripts/ab_pairs.py counted opcodes; every later
# record has an opcodes block
BEFORE_OPCODES = {f"BENCH_{n}.json" for n in (8, 9, 11, 12, 13, 14, 16, 20, 21, 27, 28, 29, 31)}
OPCODE_RECORDS = [path for path in RECORDS if os.path.basename(path) not in BEFORE_OPCODES]


def test_there_are_records_to_check():
    assert len(RECORDS) >= 8


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_every_summary_field_follows_from_the_result_lines(path):
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    recomputed = {(row["workload"], row["seed"]): row
                  for row in ab_pairs.summarise(record["parent"], record["change"], BETTER)}
    assert record["summary"]
    for row in record["summary"]:
        again = recomputed[(row["workload"], row["seed"])]
        for field, value in row.items():
            if field not in BETTER:
                assert value == again[field], (row["workload"], row["seed"], field)
                continue
            for key, stat in value.items():
                if key not in ab_pairs.SIDES:
                    assert stat == again[field][key], (row["workload"], row["seed"], field, key)
                    continue
                for name, number in stat.items():
                    expected = again[field][key][name]
                    if name in ("q1", "q3"):
                        # one record interpolated its quartiles in another float order
                        assert number == pytest.approx(expected, rel=1e-12, abs=0.0)
                    else:
                        assert number == expected, (row["workload"], row["seed"], field, key, name)


def assert_count_line(line):
    """One ``scripts/opcounts.py`` line: calls and opcodes per package and in total, and a digest."""
    assert set(line) == {"workload", "seed", "size", "calls", "opcodes", "digest"}
    for kind in ("calls", "opcodes"):
        counts = line[kind]
        assert set(counts) == {*opcounts.PACKAGES, "other", "total"}, kind
        assert all(type(n) is int and n >= 0 for n in counts.values()), kind
        assert counts["total"] == sum(n for key, n in counts.items() if key != "total"), kind
    assert isinstance(line["digest"], str) and line["digest"]


def test_a_record_of_opcode_counts_is_committed():
    assert OPCODE_RECORDS


def test_the_counter_runs_in_a_tree_and_gives_one_line_per_workload():
    (line,) = ab_pairs.run_opcounts(ROOT, ["executor_fanout:200"], 3)
    assert_count_line(line)
    assert (line["workload"], line["seed"], line["size"]) == ("executor_fanout", 3, 200)


@pytest.mark.parametrize("path", OPCODE_RECORDS, ids=os.path.basename)
def test_an_opcodes_block_has_one_count_line_per_side_workload_and_seed(path):
    block = load_record(path)["opcodes"]
    assert set(block) == {"command", *ab_pairs.SIDES}
    assert block["command"] == ab_pairs.OPCOUNTS_COMMAND
    keys = {}
    for side in ab_pairs.SIDES:
        keys[side] = [(line["workload"], line["seed"]) for line in block[side]]
        assert keys[side] and len(set(keys[side])) == len(keys[side]), side
        for line in block[side]:
            assert_count_line(line)
    assert sorted(keys["parent"]) == sorted(keys["change"])


def line(side_value, pair, metric="tick_p99_us", correct=True):
    return {"workload": "w", "seed": 3, "pair": pair, "correct": correct, "failed": 0 if correct else 1,
            "metrics": {metric: {"value": side_value, "unit": "us"}}}


def test_a_tie_is_no_win_and_the_ratio_is_change_over_parent():
    parent = [line(v, pair) for pair, v in enumerate([10.0, 20.0, 30.0, 40.0], 1)]
    change = [line(v, pair) for pair, v in enumerate([10.0, 10.0, 20.0, 50.0], 1)]
    (row,) = ab_pairs.summarise(parent, change, {"tick_p99_us": "lower"})
    entry = row["tick_p99_us"]
    assert row["pairs"] == 4 and row["all_correct"]
    assert entry["change_wins"] == "2/4"
    assert entry["parent"] == {"median": 25.0, "q1": 17.5, "q3": 32.5, "n": 4}
    assert entry["median_ratio"] == 15.0 / 25.0


def test_one_failed_run_clears_all_correct():
    parent = [line(1.0, 1), line(2.0, 2)]
    change = [line(1.0, 1), line(2.0, 2, correct=False)]
    (row,) = ab_pairs.summarise(parent, change, {"tick_p99_us": "lower"})
    assert row["all_correct"] is False


def test_pairs_take_one_count_or_one_per_seed():
    common = ["--parent", "HEAD", "--workloads", "speech_ref,kws_frontend_48k", "--out", "x.json"]
    assert ab_pairs.parse_args(common + ["--seeds", "3,1000", "--pairs", "10"]).pairs == {3: 10, 1000: 10}
    assert ab_pairs.parse_args(common + ["--seeds", "3,1000", "--pairs", "10,5"]).pairs == {3: 10, 1000: 5}
    with pytest.raises(SystemExit):
        ab_pairs.parse_args(common + ["--seeds", "3,1000", "--pairs", "10,5,2"])


def test_kernel_mode_needs_no_workloads_and_the_flowbench_mode_needs_them():
    assert ab_pairs.parse_args(["--parent", "HEAD", "--kernel", "k.py:f"]).kernel == "k.py:f"
    for argv in (["--workloads", "speech_ref"], ["--out", "x.json"], ["--kernel", "k.py"],
                 ["--kernel", "k.py:f", "--out", "x.json"]):
        with pytest.raises(SystemExit):
            ab_pairs.parse_args(["--parent", "HEAD", *argv])


TOY_KERNEL = '''
def which_src():
    import flowbot
    return 1.0 if "parent" in flowbot.__file__ else 2.0
'''


@pytest.mark.skipif(
    subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode != 0,
    reason="--parent HEAD needs a git checkout",
)
def test_kernel_pairs_run_each_side_on_its_own_src_and_print_one_summary(tmp_path):
    toy = tmp_path / "toy.py"
    toy.write_text(TOY_KERNEL)
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "ab_pairs.py"), "--parent", "HEAD",
         "--kernel", f"{toy}:which_src", "--pairs", "2"],
        cwd=ROOT, capture_output=True, text=True, check=True, env={**os.environ, "TMPDIR": str(tmp_path)},
    )
    *runs, last = done.stdout.strip().splitlines()
    assert [run.split(": ")[0].rsplit(" ", 3)[1:] for run in runs] == [
        ["pair", "1", "parent"], ["pair", "1", "change"], ["pair", "2", "change"], ["pair", "2", "parent"],
    ]
    summary = json.loads(last)
    assert set(summary) == {"kernel", "unit", "parent", "change", "median_ratio", "change_wins"}
    assert summary["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0, "n": 2}
    assert summary["change"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 2}
    assert summary["change_wins"] == "0/2" and summary["median_ratio"] == 2.0
    assert [p.name for p in tmp_path.iterdir()] == ["toy.py"]  # both trees were removed
