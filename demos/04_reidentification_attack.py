"""Linking sanitized survey streams back to identified records.

Simulates five repeated collections with the sampling solution, builds a
per-user profile of predicted values, and matches it against the full
background table by Hamming distance.  Prints the top-k re-identification
rate by survey count and budget, next to the random-guess baseline.
"""

from ldpsim.attacks import SurveysConfig, run_reident_experiment
from ldpsim.datasets import load_fixture
from ldpsim.rng import stream

ds = load_fixture("adult_style_5000").subsample(2000, stream(2024_04, 0))
print(f"population n = {ds.n}, d = {ds.d} attributes, 5 surveys, GRR, full-knowledge matcher")
print(f"random-guess baseline: top-1 {100 * 1 / ds.n:.3f}%, top-10 {100 * 10 / ds.n:.3f}%")
print()
print(f"{'eps':>4} {'surveys':>8} {'top-1 %':>9} {'top-5 %':>9} {'top-10 %':>10}")
for eps in (1.0, 4.0, 10.0):
    acc, _ = run_reident_experiment(
        ds, "grr", "smp", ("epsilon", eps), SurveysConfig(count=5),
        "fk", (1, 5, 10), runs=2, seed=2024_04,
    )
    # acc[run, survey - 2, top-k]: average over the runs
    for sv, cells in enumerate(acc.mean(axis=0), start=2):
        print(f"{eps:>4} {sv:>8} {cells[0]:>9.2f} {cells[1]:>9.2f} {cells[2]:>10.2f}")
    print()

print("a null attacker (random ranking) stays at the baseline:")
acc, _ = run_reident_experiment(
    ds, "grr", "smp", ("epsilon", 10.0), SurveysConfig(count=3),
    "null", (1, 10), runs=4, seed=2024_05,
)
for t, top_k in enumerate((1, 10)):
    print(f"  top-{top_k}: {acc[..., t].mean():.3f}% "
          f"(baseline {100 * top_k / ds.n:.3f}%)")
