"""The pairing tool's summary, on canned runs: no benchmark is started."""

import runpy
from pathlib import Path

TOOL = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"))

METRICS = [{"name": "wall_s", "better": "lower"},
           {"name": "reports_per_s", "better": "higher"}]


def _run(wall, digest="a5f79cca", failed=0):
    return {"metrics": {"wall_s": wall, "reports_per_s": 100.0 / wall}, "digest": digest,
            "correct": failed == 0, "failed": failed}


def test_summary_counts_wins_in_each_metrics_direction():
    walls = [(1.00, 0.80), (1.10, 0.90), (0.95, 0.97), (1.05, 0.85), (1.20, 0.88)]
    lines = TOOL["summarize"]([(_run(a), _run(b)) for a, b in walls], METRICS)
    wall, rate, failed, digest = lines
    # parent walls 0.95 1.00 1.05 1.10 1.20: median 1.05, quartiles 1.00 and 1.10
    assert wall.startswith("wall_s: parent 1.05 [1, 1.1] -> change 0.88 [0.85, 0.9]")
    assert "change wins 4/5" in wall and "beyond the parent IQR 0.1" in wall
    assert "change wins 4/5" in rate  # a higher rate is the better one
    assert failed == "failed rows: parent 0, change 0"
    assert digest == "one digest: a5f79cca"


def test_summary_flags_a_digest_that_differs_and_a_small_move():
    pairs = [(_run(1.0), _run(0.99)), (_run(1.2), _run(1.19, digest="deadbeef"))]
    lines = TOOL["summarize"](pairs, METRICS)
    assert "within the parent IQR" in lines[0]
    assert lines[-1] == "DIGESTS DIFFER: a5f79cca deadbeef"


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
