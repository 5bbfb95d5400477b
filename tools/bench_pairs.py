"""Alternated pairs of benchmark runs: a parent checkout against a changed one.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N [--seconds T]

PARENT and CHANGE are the roots of two checkouts.  Each pair runs the
benchmark command of BENCHMARK.json (``python3 perfbench/run.py``) once in
each, with ``--trace 0``, the parent first in even pairs and the change first
in odd ones, so a drift of the machine falls on both sides alike.  Without
``--seconds`` each run measures for the ``run_seconds`` of BENCHMARK.json.

It prints every run's end-to-end metrics and table digest, then per metric
each side's median and quartiles, the change's wins (pairs in which it is
strictly better, in the metric's direction) and whether the medians differ
by more than the parent's interquartile range.  It then totals each side's
failed rows and flags a change that fails more of them than the parent,
and flags a digest that differs between runs: the tables are not the same
bytes.  A last line gives each metric's verdict: ``gain`` when at least
ten pairs ran, the change wins at least 9 in 10 of them and its median
moves beyond the parent's interquartile range in the better direction,
``WORSE`` when its median is worse than the parent's by more than the
metric's ``bound`` fraction of it, else ``neither``.  Standard library
only; the benchmark's own files are only run, never written.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float | None) -> dict:
    """One ``--trace 0`` benchmark run in ``checkout``: its metric values and digest."""
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()
        raise RuntimeError(f"{checkout}: {tail[-1] if tail else f'exit {proc.returncode}'}")
    result = json.loads(lines[-1])
    digest = re.search(r"table sha256 (.+)$", proc.stdout, re.MULTILINE)
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "digest": digest.group(1) if digest else "?",
            "correct": result["correct"], "failed": result["failed"]}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def run_line(i: int, side: str, run: dict, metrics: list[dict]) -> str:
    """One run's metric values, failed rows (flagged unless perfbench calls it correct)
    and digest."""
    values = " ".join(f"{m['name']} {run['metrics'][m['name']]:.6g}" for m in metrics)
    flag = "" if run["correct"] else " NOT CORRECT"
    return f"pair {i} {side}: {values} failed {run['failed']}{flag} digest {run['digest'][:16]}"


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """Summary lines for ``pairs`` of (parent, change) runs, as ``run_once`` returns them;
    ``metrics`` are BENCHMARK.json's end-to-end entries (name, ``better`` and, for the
    verdict's WORSE, ``bound``)."""
    lines, verdicts = [], []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        old = [p["metrics"][name] for p, _ in pairs]
        new = [c["metrics"][name] for _, c in pairs]
        (q1, med, q3), (c1, cmed, c3) = _quartiles(old), _quartiles(new)
        wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        beyond = "beyond" if abs(cmed - med) > q3 - q1 else "within"
        better_by = (med - cmed) if lower else (cmed - med)
        if len(pairs) >= 10 and 10 * wins >= 9 * len(pairs) and better_by > q3 - q1:
            verdicts.append(f"{name} gain")
        elif "bound" in m and -better_by > m["bound"] * abs(med):
            verdicts.append(f"{name} WORSE")
        else:
            verdicts.append(f"{name} neither")
        move = f"{cmed / med - 1:+.1%}" if med else "parent median 0"
        lines.append(f"{name}: parent {med:.6g} [{q1:.6g}, {q3:.6g}] -> change {cmed:.6g} "
                     f"[{c1:.6g}, {c3:.6g}] ({move}); change wins "
                     f"{wins}/{len(pairs)}; median move {beyond} the parent IQR {q3 - q1:.3g}")
    old, new = (sum(run["failed"] for run in side) for side in zip(*pairs))
    more = "; CHANGE FAILS MORE ROWS" if new > old else ""
    lines.append(f"failed rows: parent {old}, change {new}{more}")
    digests = sorted({run["digest"] for pair in pairs for run in pair})
    if len(digests) > 1:
        lines.append("DIGESTS DIFFER: " + " ".join(digests))
    else:
        lines.append(f"one digest: {digests[0]}")
    lines.append("verdict: " + ", ".join(verdicts))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs = []
    for i in range(args.pairs):
        first, second = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {}
        for side in (first, second):
            runs[side] = run_once(getattr(args, side), spec["command"], args.workload,
                                  args.seed, args.seconds)
            print(run_line(i, side, runs[side], spec["end_to_end"]), flush=True)
        pairs.append((runs["parent"], runs["change"]))
    print("\n".join(summarize(pairs, spec["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
