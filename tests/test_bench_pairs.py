"""The pairing tool's summary, on canned runs: no benchmark is started."""

import runpy
from pathlib import Path

TOOL = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"))

METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.25},
           {"name": "reports_per_s", "better": "higher", "bound": 0.25}]


def _run(wall, digest="a5f79cca", failed=0):
    return {"metrics": {"wall_s": wall, "reports_per_s": 100.0 / wall}, "digest": digest,
            "correct": failed == 0, "failed": failed}


def test_summary_counts_wins_in_each_metrics_direction():
    walls = [(1.00, 0.80), (1.10, 0.90), (0.95, 0.97), (1.05, 0.85), (1.20, 0.88)]
    lines = TOOL["summarize"]([(_run(a), _run(b)) for a, b in walls], METRICS)
    wall, rate, failed, digest, verdict = lines
    # parent walls 0.95 1.00 1.05 1.10 1.20: median 1.05, quartiles 1.00 and 1.10
    assert wall.startswith("wall_s: parent 1.05 [1, 1.1] -> change 0.88 [0.85, 0.9]")
    assert "change wins 4/5" in wall and "beyond the parent IQR 0.1" in wall
    assert "change wins 4/5" in rate  # a higher rate is the better one
    assert failed == "failed rows: parent 0, change 0"
    assert digest == "one digest: a5f79cca"
    # 4 wins in 5 pairs fall short of 9 in 10
    assert verdict == "verdict: wall_s neither, reports_per_s neither"


def test_summary_flags_a_digest_that_differs_and_a_small_move():
    pairs = [(_run(1.0), _run(0.99)), (_run(1.2), _run(1.19, digest="deadbeef"))]
    lines = TOOL["summarize"](pairs, METRICS)
    assert "within the parent IQR" in lines[0]
    assert lines[-2] == "DIGESTS DIFFER: a5f79cca deadbeef"


def test_one_pair_and_a_run_line():
    line = TOOL["run_line"](3, "change", _run(0.5, failed=2), METRICS)
    assert line == ("pair 3 change: wall_s 0.5 reports_per_s 200 failed 2 NOT CORRECT "
                    "digest a5f79cca")
    assert TOOL["summarize"]([(_run(1.0), _run(0.5))], METRICS)[0].startswith(
        "wall_s: parent 1 [1, 1] -> change 0.5 [0.5, 0.5] (-50.0%); change wins 1/1")


def test_summary_totals_failed_rows_and_flags_a_change_that_fails_more():
    pairs = [(_run(1.0, failed=1), _run(1.0, failed=2)), (_run(1.1), _run(1.1, failed=1))]
    assert TOOL["summarize"](pairs, METRICS)[2] == (
        "failed rows: parent 1, change 3; CHANGE FAILS MORE ROWS")
    fewer = [(c, p) for p, c in pairs]
    assert TOOL["summarize"](fewer, METRICS)[2] == "failed rows: parent 3, change 1"


def test_summary_survives_a_parent_median_of_zero():
    run = {"metrics": {"wall_s": 0.0, "reports_per_s": 0.0}, "digest": "a5f79cca",
           "correct": True, "failed": 0}
    changed = {**run, "metrics": {"wall_s": 0.5, "reports_per_s": 2.0}}
    wall, rate = TOOL["summarize"]([(run, changed)], METRICS)[:2]
    assert "(parent median 0); change wins 0/1" in wall
    assert "(parent median 0); change wins 1/1" in rate


def _verdict(walls):
    return TOOL["summarize"]([(_run(a), _run(b)) for a, b in walls], METRICS)[-1]


def test_verdict_gain_needs_nine_in_ten_wins_and_a_move_beyond_the_parent_iqr():
    # parent walls 1.00..1.09: median 1.045, quartiles 1.0225 and 1.0675 (IQR 0.045)
    parent = [1.00 + i / 100 for i in range(10)]
    nine = [(a, 0.9) for a in parent[:9]] + [(parent[9], 1.2)]
    assert _verdict(nine) == "verdict: wall_s gain, reports_per_s gain"
    eight = [(a, 0.9) for a in parent[:8]] + [(a, 1.2) for a in parent[8:]]
    assert _verdict(eight) == "verdict: wall_s neither, reports_per_s neither"
    # every pair won, but the median moves 0.03 < IQR 0.045
    small = [(a, a - 0.001) for a in parent[:5]] + [(a, 1.015) for a in parent[5:]]
    assert "change wins 10/10" in TOOL["summarize"](
        [(_run(a), _run(b)) for a, b in small], METRICS)[0]
    assert _verdict(small) == "verdict: wall_s neither, reports_per_s neither"
    # fewer than ten pairs never make a gain, however many of them are won
    assert _verdict(nine[:9]) == "verdict: wall_s neither, reports_per_s neither"


def test_verdict_worse_is_a_median_beyond_the_metric_bound():
    # wall median 1.0 -> 1.3 is 30 % worse, beyond the 25 % bound; the rate's median
    # falls from 100 to 76.9, 23.1 % worse, within its own
    assert _verdict([(1.0, 1.3)] * 4) == "verdict: wall_s WORSE, reports_per_s neither"
    assert _verdict([(1.0, 1.2)] * 4) == "verdict: wall_s neither, reports_per_s neither"
    assert _verdict([(1.0, 1.4)] * 4) == "verdict: wall_s WORSE, reports_per_s WORSE"
    # a metric with no bound is never WORSE
    unbounded = [{"name": "wall_s", "better": "lower"}]
    assert TOOL["summarize"]([(_run(1.0), _run(2.0))], unbounded)[-1] == (
        "verdict: wall_s neither")
