"""Single-attribute frequency oracles end to end.

Each user holds one categorical value, randomizes it locally, and the
aggregator reconstructs the histogram from the sanitized reports alone.
This script runs all five oracles on the same skewed population and prints
the estimates next to the truth.
"""

import numpy as np

from ldpsim import oracles as oc
from ldpsim.rng import stream

K = 6
N = 200_000
EPS = 1.0

rng = stream(2024_01, 0)
truth = rng.dirichlet(np.ones(K) * 2)
values = rng.choice(K, size=N, p=truth)

print(f"n = {N} users, k = {K} values, epsilon = {EPS}")
print("true frequencies:", np.array2string(truth, precision=4))
print()
print(f"{'oracle':<6} {'aux':>5} {'p':>8} {'q':>8}   estimate")
for proto in oc.PROTOCOLS:
    params = oc.protocol_params(proto, EPS, K)
    batch = oc.randomize_batch(values, params, rng)
    est = oc.estimate_frequencies(batch)
    aux = "-" if params.aux is None else str(params.aux)
    print(f"{proto:<6} {aux:>5} {params.p:>8.4f} {params.q:>8.4f}   "
          + np.array2string(est, precision=4))

print()
print("raw estimates are unbiased but unconstrained; clip_normalize projects")
params = oc.protocol_params("oue", EPS, K)
est = oc.estimate_frequencies(oc.randomize_batch(values, params, rng))
print("raw :", np.array2string(est, precision=4))
print("clip:", np.array2string(oc.clip_normalize(est), precision=4))
