"""tools/bench_pairs.py's summary, on canned benchmark result lines (no benchmark runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"pass_s": "lower", "rounds": "lower", "score": "higher"}


def line(pass_s, rounds, score=1.0, failed=0, correct=True, attempted=8):
    """One result line as ``benchmarks/run.py --trace 0`` prints it last."""
    metrics = {"pass_s": {"value": pass_s, "unit": "s"},
               "rounds": {"value": rounds, "unit": "count"},
               "score": {"value": score, "unit": "x"}}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def runs(workload, rows):
    """Records for (seed, side, line) rows, the lines decoded as the script decodes them."""
    return [{"workload": workload, "seed": seed, "side": side, "result": json.loads(text)}
            for seed, side, text in rows]


def test_medians_ratio_and_pairs_won():
    got = bench_pairs.summarize(runs("wide", [
        (101, "parent", line(0.030, 11, 2.0)), (101, "change", line(0.024, 10, 3.0)),
        (102, "change", line(0.033, 10, 1.0)), (102, "parent", line(0.031, 11, 2.0)),
        (103, "parent", line(0.029, 11, 2.0)), (103, "change", line(0.025, 10, 2.0)),
    ]), BETTER)["wide"]
    assert got["pairs"] == 3
    # statistics.quantiles(n=4) of three values cuts at the values themselves
    assert got["pass_s"] == {"parent": 0.030, "change": 0.025,
                             "ratio": pytest.approx(0.025 / 0.030), "better": 2,
                             "quartiles": {"parent": [0.029, 0.030, 0.031],
                                           "change": [0.024, 0.025, 0.033]}}
    assert got["rounds"] == {"parent": 11, "change": 10, "ratio": pytest.approx(10 / 11),
                             "better": 3,
                             "quartiles": {"parent": [11, 11, 11], "change": [10, 10, 10]}}
    # a higher-is-better metric counts the other way, and a tie wins for neither side
    assert got["score"]["better"] == 1
    assert got["failed"] == {"parent": 0, "change": 0}
    assert got["correct"] is True


def test_a_seed_with_one_side_only_is_no_pair_and_failures_are_summed():
    got = bench_pairs.summarize(
        runs("dense", [
            (101, "parent", line(0.013, 35, failed=1)), (101, "change", line(0.012, 35, failed=1)),
            (102, "parent", line(0.014, 35, failed=1)),
        ]) + runs("games", [
            (101, "change", line(0.009, 28, correct=False)), (101, "parent", line(0.009, 28)),
        ]), BETTER)
    assert list(got) == ["dense", "games"]
    assert got["dense"]["pairs"] == 1
    assert got["dense"]["failed"] == {"parent": 1, "change": 1}
    # each side's operations, and the share that failed, over the pairs only
    assert got["dense"]["attempted"] == {"parent": 8, "change": 8}
    assert got["dense"]["failed_share"] == {"parent": 0.125, "change": 0.125}
    assert got["dense"]["rounds"]["better"] == 0
    # one pair: its value is all three quartiles
    assert got["dense"]["pass_s"]["quartiles"] == {"parent": [0.013] * 3, "change": [0.012] * 3}
    assert got["games"]["correct"] is False
    assert got["games"]["pass_s"]["ratio"] == 1.0


def test_the_failed_share_compares_sides_that_fit_different_numbers_of_passes():
    # the faster side fits more passes into its runs, so its raw sum of failures is
    # larger though each side fails one operation in four
    got = bench_pairs.summarize(runs("dense", [
        (101, "parent", line(0.010, 13, failed=3, attempted=12)),
        (101, "change", line(0.008, 13, failed=4, attempted=16)),
        (102, "change", line(0.008, 13, failed=5, attempted=20)),
        (102, "parent", line(0.010, 13, failed=4, attempted=16)),
    ]) + runs("games", [(101, "parent", line(0.005, 11))]), BETTER)
    assert got["dense"]["failed"] == {"parent": 7, "change": 9}
    assert got["dense"]["attempted"] == {"parent": 28, "change": 36}
    assert got["dense"]["failed_share"] == {"parent": 0.25, "change": 0.25}
    # a workload with no pair attempts nothing, and has no share
    assert got["games"]["pairs"] == 0
    assert got["games"]["failed_share"] == {"parent": None, "change": None}


def test_defaults_are_ten_seeds_at_the_benchmarks_run_length(monkeypatch, tmp_path):
    # main's runs, with the trees' export and the benchmark runs replaced by stubs
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}}
    calls = []
    monkeypatch.setattr(bench_pairs, "export_parent", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(bench_pairs, "export_change", lambda dest: None)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "")
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, workload, seed, seconds: (
        calls.append((tree.name, workload, seed, seconds)) or result))
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--workdir", str(tmp_path / "trees"), "--out", str(out)]) == 0
    # each side of ten seeds on the three workloads, each run BENCHMARK.json's 12 s long
    assert spec["run_seconds"] == 12
    assert sorted(calls) == sorted((side, w, s, 12) for side in bench_pairs.SIDES
                                   for w in ("dense", "wide", "games") for s in range(101, 111))
    record = json.loads(out.read_text())
    assert record["seeds"] == list(range(101, 111))
    assert record["command"] == "benchmarks/run.py --trace 0 --seconds 12"
    assert [record["summary"][w]["pairs"] for w in ("dense", "wide", "games")] == [10] * 3
    # the run length is no option
    with pytest.raises(SystemExit):
        bench_pairs.main(["--workdir", str(tmp_path / "more"), "--out", str(out), "--seconds", "2"])
