"""Translating between the epsilon budget and the alpha (bits) budget.

alpha caps the information a report leaks about who produced it; it maps
to and from epsilon and can be set from a target Bayes error for the
re-identification adversary.  Small domains need no randomizer at all:
the raw value already leaks at most log2(k) <= alpha bits.
"""

import math

from ldpsim import budget

N, D_K = 45_222, [74, 7, 16, 7, 14, 6, 5, 2, 41, 2]

print(f"alpha guaranteed by an epsilon-LDP report (n = {N}, k = 74):")
for eps in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
    a = budget.alpha_from_epsilon(eps, N, 74)
    print(f"  eps = {eps:>5}: alpha = {a:.4f} bits")

print("\nalpha from a target Bayes error (the re-identification floor):")
for beta in (0.5, 0.7, 0.9, 0.95):
    a = budget.alpha_from_bayes_error(beta, N)
    clamp = "  (clamped at 0)" if budget.bayes_alpha_clamped(beta, N) else ""
    print(f"  beta = {beta}: alpha = {a:.4f} bits{clamp}")

alpha = budget.alpha_from_bayes_error(0.5, N)
print(f"\nper-attribute decisions at alpha = {alpha:.3f} bits:")
print(f"{'k':>4} {'decision':<14} {'epsilon':>8}")
for k in D_K:
    eps = budget.epsilon_from_alpha(alpha, N, k)
    if eps == math.inf:
        print(f"{k:>4} {'pass-through':<14} {'-':>8}   (log2 k = {math.log2(k):.2f} <= alpha)")
    else:
        print(f"{k:>4} {'randomize':<14} {eps:>8.4f}")

print("\nround trip sanity: eps -> alpha -> eps")
for eps in (0.3, 1.0, 3.0):
    a = budget.alpha_from_epsilon(eps, 2**40, 2**40)
    back = budget.epsilon_from_alpha(a, 2**40, 2**40)
    print(f"  {eps} -> {a:.4f} -> {back:.6f}")
