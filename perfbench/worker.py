"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py --config CFG --out TABLE.csv [--trace SPANS.json [--memory]]
    python3 perfbench/worker.py --warmup

The process imports ``ldpsim.harness``, parses and validates the config
(set-up ends here), then times ``run_experiment`` plus ``export_results``.
With ``--trace`` the span wrappers are switched on after set-up and the raw
spans are written to SPANS.json.  ``--memory`` also runs tracemalloc, which
gives each span its peak but slows some numpy kernels several-fold (bounded
``Generator.integers`` most), so span times are taken without it.
``--warmup`` only imports the package, which compiles its bytecode, and
reports the environment.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _rusage_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", type=Path, default=None)
    parser.add_argument("--memory", action="store_true")
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args()

    from ldpsim.harness import build_config, export_results, parse_config, run_experiment

    if args.warmup:
        print(json.dumps(_environment()))
        return 0

    cfg = build_config(parse_config(args.config.read_text(encoding="utf-8")))
    t_ready = time.monotonic()

    tracer = None
    if args.trace is not None:
        import tracemalloc

        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        if args.memory:
            tracemalloc.start()

    cpu0 = _rusage_cpu_s()
    t0 = time.perf_counter()
    rows = run_experiment(cfg)
    if tracer is None:
        export_results(rows, args.out, "csv")
    else:
        with tracer.span("harness.export"):
            export_results(rows, args.out, "csv")
    wall_s = time.perf_counter() - t0
    cpu_s = _rusage_cpu_s() - cpu0

    result = {
        "t_ready": t_ready,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "rows": len(rows),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracemalloc.stop()
        tracer.uninstall()
        layers = tracer.layer_metrics(wall_s, cfg.threads)
        layers["harness.cpu_s"] = cpu_s
        layers["trace.wall_s"] = wall_s
        result["layers"] = layers
        args.trace.write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
