"""The benchmark's per-layer spans still bind to the library and still count.

``perfbench/tracing.py`` rebinds ldpsim names from the outside and reads
argument names (``values``, ``params``, ``batch``, ``X``, ``dataset``,
``surveys``, ``runs``) and ``.labels`` of ``build_learning_set``'s result.
A rename in ``src/`` would silently drop a span or break a counter, so this
loads the tracer by path, checks which ``SPANS`` entries bind, and runs one
tiny grid of each traced kind under it.
"""

import importlib.util
from pathlib import Path

import pytest

from ldpsim.harness import build_config, run_experiment

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# entries whose names the modules no longer have: OLH hashing moved to the
# oracles, and the fake-data engine is rs_sanitize_batch / rs_estimate
STALE = {("ldpsim.attacks", "hash_bucket")} | {
    (module, f"{prefix}_{step}") for module in ("ldpsim.attacks", "ldpsim.harness")
    for prefix in ("rsfd", "rsrfd") for step in ("sanitize_batch", "estimate")}

GRIDS = [
    {"experiment": "reident", "dataset": "fixture:adult_style_100", "epsilons": [4.0],
     "attack_models": ["fk", "null"]},
    {"experiment": "attack_oracle", "protocols": ["grr", "olh", "oue"], "epsilons": [2.0],
     "ks": [8], "n": 500},
    {"experiment": "attr_infer", "dataset": "synth:zipf", "synth_n": 500,
     "variants": ["grr", "oue_r"], "solutions": ["rs_fd", "rs_rfd"], "epsilons": [2.0]},
]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound(tracing):
    return [(owner, attr, layer) for owner, attr, layer, _ in tracing.SPANS
            if getattr(tracing._resolve(owner), attr, None) is not None]


def test_every_span_binds_but_the_known_stale(tracing):
    bound = {(owner, attr) for owner, attr, _ in _bound(tracing)}
    unbound = {(owner, attr) for owner, attr, _, _ in tracing.SPANS} - bound
    assert unbound <= STALE


def test_every_bound_layer_counts_on_a_tiny_grid(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for grid in GRIDS:
            assert run_experiment(build_config({"seed": 1, **grid}))
    finally:
        tracer.uninstall()
    recorded = {span["layer"] for span in tracer.spans}
    assert {layer for _, _, layer in _bound(tracing)} <= recorded
