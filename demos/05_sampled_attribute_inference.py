"""Uncovering which slot of a fake-data tuple carries the real report.

The rs_fd solution hides the sampled attribute among uniform fakes.  A
classifier trained on synthetic profiles (no knowledge), compromised users
(partial knowledge), or both can still beat the 1/d guess when the data is
skewed -- dramatically so for the zero-vector UE variant.  Prior-driven
fakes (rs_rfd) close the gap again.
"""

from ldpsim.attacks import run_attr_infer_experiment
from ldpsim.multidim import CollectionConfig
from ldpsim.datasets import laplace_prior, true_frequencies, uniform_dataset, zipf_dataset
from ldpsim.rng import stream

KS = [16, 12, 8, 6, 4]
N = 20_000
skewed = zipf_dataset(N, KS, 1.0, stream(2024_06, 0))
uniform = uniform_dataset(N, KS, stream(2024_06, 1))
baseline = 100 / len(KS)
print(f"d = {len(KS)} attributes, n = {N}, baseline = {baseline:.0f}%")


for name, ds in [("skewed (zipf)", skewed), ("uniform", uniform)]:
    print(f"\n--- rs_fd on {name} data: inference accuracy (%) ---")
    print(f"{'variant':<8} {'eps':>4} {'nk':>7} {'pk':>7} {'hm':>7}")
    for variant in ("grr", "sue_z", "oue_r"):
        for eps in (1.0, 10.0):
            res = run_attr_infer_experiment(
                ds.rows, CollectionConfig(ds.multidomain, "rs_fd", variant, eps),
                attack_models=("nk", "pk", "hm"), s_mult=1.0, npk_frac=0.1,
                seed=2024_07,
            )
            vals = {model: acc for model, (acc, _) in res.items()}
            print(f"{variant:<8} {eps:>4} {vals['nk']:>7.1f} {vals['pk']:>7.1f} "
                  f"{vals['hm']:>7.1f}")

print("\n--- countermeasure: rs_rfd with noisy public priors, skewed data ---")
priors, _ = laplace_prior(true_frequencies(skewed), 0.1, N, stream(2024_06, 2))
print(f"{'variant':<8} {'eps':>4} {'nk':>7} {'pk':>7} {'hm':>7}")
for variant in ("grr", "oue_r"):
    for eps in (1.0, 10.0):
        res = run_attr_infer_experiment(
            skewed.rows,
            CollectionConfig(skewed.multidomain, "rs_rfd", variant, eps, priors),
            attack_models=("nk", "pk", "hm"), s_mult=1.0, npk_frac=0.1, seed=2024_08,
        )
        vals = {model: acc for model, (acc, _) in res.items()}
        print(f"{variant:<8} {eps:>4} {vals['nk']:>7.1f} {vals['pk']:>7.1f} "
              f"{vals['hm']:>7.1f}")
