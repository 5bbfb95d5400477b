"""ldpsim benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition runs the workload's
experiment grid in a fresh process (``worker.py``); repetitions follow one
another until ``--seconds`` of measuring is used, with at least three.

* ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
  over the repetitions: ``wall_s`` (run_experiment plus export_results),
  ``reports_per_s`` (simulated user reports, counted from the config, over
  ``wall_s``), ``peak_rss_mib`` (ru_maxrss of the repetition's process) and
  ``setup_s`` (spawn to validated config: interpreter start, imports, config
  parsing).  No tracing code is loaded in these processes.
* ``--trace 1`` cycles through three kinds of repetition: untraced, spans
  (per-layer times and work counts) and spans plus tracemalloc (per-layer
  ``peak_mib``; tracemalloc distorts some kernels' times, so it never runs
  in the other two).  It reports the per-layer metrics of BENCHMARK.json as
  medians over the traced repetitions, and ``trace.overhead_frac``: spans
  over untraced median wall time, minus 1.

Every repetition's CSV is checked (``workloads.py``) and its sha256 is
recorded.  ``failed`` counts result rows that are missing or fail the check;
``correct`` also requires every repetition, traced or not, to export the
same bytes.  A record of each run is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# A run must end within 180 s; no repetition starts that could not end by this.
DEADLINE_S = 165.0
MIN_REPS = 3


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _worker(args: list[str], env: dict, deadline: float) -> tuple[dict | None, str]:
    """Run worker.py once; return (last-line JSON, error text)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()
        return None, tail[-1] if tail else f"exit code {proc.returncode}"
    return json.loads(lines[-1]), ""


class Runner:
    def __init__(self, workload, seed: int, env: dict, deadline: float):
        self.w = workload
        self.env = env
        self.deadline = deadline
        self.stem = OUT / f"{workload.name}-seed{seed}"
        self.cfg_path = self.stem.with_suffix(".cfg")
        self.table = self.stem.with_suffix(".csv")
        self.cfg_path.write_text(workload.config_text(seed, self.table.name), encoding="utf-8")

    def rep(self, mode: str) -> dict:
        """One repetition in ``mode`` (plain, spans or memory); digest and check its table."""
        self.table.unlink(missing_ok=True)
        args = ["--config", str(self.cfg_path), "--out", str(self.table)]
        if mode != "plain":
            args += ["--trace", f"{self.stem}.{mode}.json"]
        if mode == "memory":
            args.append("--memory")
        t_spawn = time.monotonic()
        res, error = _worker(args, self.env, self.deadline)
        if res is None:
            return {"mode": mode, "error": error, "failed": self.w.expected_rows(self.w)}
        data = self.table.read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        res.update(
            mode=mode,
            setup_s=res.pop("t_ready") - t_spawn,
            digest=hashlib.sha256(data).hexdigest(),
            failed=min(self.w.check(self.w, rows), self.w.expected_rows(self.w)),
        )
        return res


def _median(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def main() -> int:
    t_start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1; held-out seed: 7919)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ldpsim" / "__init__.py").is_file():
        return _fail(f"no ldpsim sources under {ROOT / 'src'}")
    if not spec_path.is_file():
        return _fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    OUT.mkdir(exist_ok=True)
    env = dict(os.environ)
    env.pop("LDPSIM_THREADS", None)  # the workload config sets the pool size
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    deadline = t_start + DEADLINE_S

    # untimed: compiles bytecode and warms the file cache before set-up is timed
    environment, error = _worker(["--warmup"], env, deadline)
    if environment is None:
        return _fail(f"cannot import ldpsim: {error}")

    w = WORKLOADS[args.workload]
    runner = Runner(w, args.seed, env, deadline)
    modes = ("plain", "spans", "memory") if args.trace else ("plain",)
    reps: list[dict] = []
    t_measure = time.monotonic()
    cycles = 0
    while True:
        reps += [runner.rep(mode) for mode in modes]
        cycles += 1
        elapsed = time.monotonic() - t_measure
        per_cycle = elapsed / cycles
        if time.monotonic() + per_cycle > deadline:
            break
        if cycles >= (1 if args.trace else MIN_REPS) and elapsed + per_cycle > seconds:
            break

    good = [r for r in reps if "error" not in r]
    by_mode = {mode: [r for r in good if r["mode"] == mode] for mode in modes}
    if not all(by_mode.values()):
        for r in reps:
            print(f"perfbench: repetition failed: {r.get('error')}", file=sys.stderr)
        return 1

    digests = sorted({r["digest"] for r in good})
    failed = sum(r["failed"] for r in reps)
    correct = failed == 0 and len(digests) == 1 and len(good) == len(reps)

    if args.trace:
        wanted = spec["per_layer"]
        values = {}
        for m in wanted:
            source = by_mode["memory" if m["name"].endswith(".peak_mib") else "spans"]
            values[m["name"]] = statistics.median(r["layers"].get(m["name"], 0.0)
                                                  for r in source)
        values["trace.overhead_frac"] = (_median(by_mode["spans"], "wall_s")
                                         / _median(by_mode["plain"], "wall_s") - 1.0)
    else:
        wanted = spec["end_to_end"]
        plain = by_mode["plain"]
        wall = _median(plain, "wall_s")
        values = {
            "wall_s": wall,
            "reports_per_s": w.reports(w) / wall,
            "peak_rss_mib": _median(plain, "peak_rss_mib"),
            "setup_s": _median(plain, "setup_s"),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "seconds": seconds, "environment": environment,
        "config": runner.cfg_path.read_text(encoding="utf-8"),
        "reports": w.reports(w), "expected_rows": w.expected_rows(w),
        "digests": digests, "repetitions": reps, "metrics": metrics,
    }
    (runner.stem.parent / f"{runner.stem.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {w.name} seed {args.seed}: {len(reps)} repetitions, "
          f"{failed} failed rows, table sha256 {' '.join(digests)}")
    print("environment " + json.dumps(environment))
    if args.trace:
        share = {k[:-len(".self_s")]: v / (values["trace.wall_s"] * w.threads)
                 for k, v in values.items() if k.endswith(".self_s") and k.count(".") == 2}
        top = sorted(share.items(), key=lambda kv: -kv[1])[:6]
        print("self-time share of traced wall x threads: "
              + ", ".join(f"{k} {v:.1%}" for k, v in top))
    print(json.dumps({"correct": correct, "attempted": w.expected_rows(w) * len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
