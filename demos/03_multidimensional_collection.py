"""Collecting d attributes per user: splitting, sampling, and fake data.

Runs the four solution families over the bundled census-style table and
compares estimation quality (averaged MSE).  The fake-data solutions hide
which attribute each user really reported; drawing the fakes from public
priors (rs_rfd) instead of uniformly (rs_fd) recovers part of the accuracy.
Both run through one engine: a CollectionConfig names the solution and
resolves its fake distribution, and rs_sanitize_batch / rs_estimate take it.
SPL runs through spl_sanitize_batch and SMP draws its attribute through
smp_sample, the law the reident surveys use.  The SMP numbers printed here
moved when that draw replaced a plain rng.integers one: the same law on
another random stream.
"""

import math

import numpy as np

from ldpsim import multidim as mdm
from ldpsim import oracles as oc
from ldpsim.datasets import laplace_prior, load_fixture, mse_avg, true_frequencies
from ldpsim.rng import stream

EPS = math.log(4)

ds = load_fixture("adult_style_5000")
truth = true_frequencies(ds)
md = ds.multidomain
priors, _ = laplace_prior(truth, 0.1, 45_222, stream(2024_03, 0))
print(f"census-style table: n = {ds.n}, d = {ds.d}, k = {list(ds.ks)}, eps = ln 4")
print()

REPS = 10  # MSE averaged over paired repetitions
rows = {}


def averaged(fn):
    return sum(fn(r) for r in range(REPS)) / REPS


def spl_mse(rep):
    batches = mdm.spl_sanitize_batch(ds.rows, md, "grr", EPS, stream(2024_03, 1, rep))
    return mse_avg(truth, [oc.estimate_frequencies(b) for b in batches])


def smp_mse(rep):
    # one attribute per user at full eps (d-fold fewer reports per attribute)
    rng = stream(2024_03, 2, rep)
    sampled, _ = mdm.smp_sample(np.zeros((ds.n, md.d), dtype=bool), np.arange(md.d),
                                "without_replacement", rng)
    est = []
    for a, dom in enumerate(md.domains):
        params = oc.protocol_params("grr", EPS, dom.k)
        batch = oc.randomize_batch(ds.rows[sampled == a, a], params, rng)
        est.append(oc.estimate_frequencies(batch))
    return mse_avg(truth, est)


rows["spl[grr]"] = averaged(spl_mse)
rows["smp[grr]"] = averaged(smp_mse)

for variant in ("grr", "sue_r", "oue_r"):
    for solution in ("rs_fd", "rs_rfd"):
        cfg = mdm.CollectionConfig(md, solution, variant, EPS, priors)

        def fake_data_mse(rep, cfg=cfg):
            b, _ = mdm.rs_sanitize_batch(ds.rows, cfg, stream(2024_03, 3, rep))
            return mse_avg(truth, mdm.rs_estimate(b))

        rows[f"{solution}[{variant}]"] = averaged(fake_data_mse)

print(f"{'solution':<16} {'MSE_avg':>12}   (mean over {REPS} paired runs)")
for name, value in rows.items():
    print(f"{name:<16} {value:>12.3e}")
print()
print("the sampled slot of rs_fd / rs_rfd runs at the amplified budget")
print(f"eps' = ln(d(e^eps - 1) + 1) = {mdm.amplified_epsilon(EPS, md.d):.4f}")
