"""tools/bench_pairs.py on canned perfbench result lines; no benchmark runs here."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def result_line(run_s, rss, failed=0):
    return json.dumps({"correct": failed == 0, "attempted": 40, "failed": failed, "metrics": {
        "run_s": {"value": run_s, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}})


def test_parse_run_reads_the_last_line_only():
    stdout = "workload logs_score  seed 1\nmetric run_s = 0.19 s\n" + result_line(0.19, 27.2) + "\n\n"
    got = bench_pairs.parse_run(stdout)
    assert got["metrics"]["peak_rss_mb"]["value"] == 27.2 and got["failed"] == 0


@pytest.mark.parametrize("stdout", ["", "perfbench: no lqrinfluence sources\n",
                                    '{"metrics": {}}\n', "[1, 2]\n"])
def test_parse_run_rejects_what_is_not_a_result_line(stdout):
    assert bench_pairs.parse_run(stdout) is None


def test_summarize_counts_pairs_quartiles_and_failures():
    parent_rss = [27.2, 27.1, 27.3, 27.2, 27.4]
    change_rss = [24.5, 24.6, 27.5, 24.5, 24.4]   # the third pair reads higher
    pairs = [{"workload": "logs_score", "seed": s,
              "parent": bench_pairs.parse_run(result_line(0.19, a)),
              "change": bench_pairs.parse_run(result_line(0.18, b, failed=int(s == 3)))}
             for s, (a, b) in enumerate(zip(parent_rss, change_rss), start=1)]
    out = bench_pairs.summarize(pairs)["logs_score"]
    assert out["seeds"] == [1, 2, 3, 4, 5]
    assert out["failed"] == {"parent": [0] * 5, "change": [0, 0, 1, 0, 0]}
    rss = out["metrics"]["peak_rss_mb"]
    assert rss["pairs"] == 5 and rss["change_lower"] == 4
    assert rss["parent"] == {"median": 27.2, "q1": 27.2, "q3": 27.3, "n": 5}
    assert rss["change"]["median"] == 24.5
    assert rss["median_gain"] == pytest.approx(2.7) and rss["gain_exceeds_parent_iqr"]
    assert out["metrics"]["run_s"]["change_lower"] == 5


def test_summarize_keeps_a_crashed_run_out_of_the_statistics():
    crashed = {"correct": False, "attempted": None, "failed": None, "metrics": {}, "exit": 1}
    pairs = [{"workload": "msd_exact", "seed": 1, "parent": bench_pairs.parse_run(
        result_line(0.5, 18.3)), "change": crashed}]
    out = bench_pairs.summarize(pairs)["msd_exact"]
    assert out["metrics"]["run_s"]["pairs"] == 0
    assert out["metrics"]["run_s"]["change"]["median"] is None
    assert out["failed"]["change"] == [None]


def test_pair_seeds_follow_the_change_commit_hash():
    commit = "6426cd843079dd3bb391315a93564977c6c225ee"
    assert bench_pairs.pair_seeds(commit, 3) == [0x6426cd84, 0x6426cd85, 0x6426cd86]
    assert bench_pairs.pair_seeds(commit.upper(), 10) == bench_pairs.pair_seeds(commit, 10)
    assert bench_pairs.pair_seeds("0" * 40, 2) == [0, 1]
