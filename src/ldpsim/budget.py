"""Mapping between the epsilon-LDP budget and the entropy-style alpha budget.

The alpha budget (in bits) caps how much a sanitized report can reveal about
which user produced it.  An epsilon-LDP randomizer over a domain of size k
observed by a population of n users guarantees

    alpha = min(eps * log2(e), eps^2 * log2(e), log2(n), log2(k)).

Going the other way, a target Bayes error beta for the re-identification
adversary fixes alpha through  beta >= 1 - (alpha + 1) / log2(n), and alpha
maps back to an epsilon -- or to a pass-through decision when the domain is
so small that even the raw value leaks at most alpha bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ParameterError

LOG2_E = math.log2(math.e)

# epsilon assigned when an alpha budget of 0 admits no randomizer; at this
# scale every protocol is indistinguishable from its epsilon -> 0 limit
EPSILON_FLOOR = 1e-6


@dataclass(frozen=True)
class EpsilonDecision:
    """Outcome of inverting an alpha budget for one attribute.

    ``pass_through`` means the raw value may be reported unrandomized
    (log2(k) <= alpha or log2(n) <= alpha already caps the leakage).
    ``epsilon`` is 0.0 exactly when alpha = 0 with no pass-through; callers
    must treat that sentinel as non-identifiable.
    """

    epsilon: float
    pass_through: bool


def alpha_from_epsilon(epsilon: float, n: int, k: int) -> float:
    """Alpha bits guaranteed by an epsilon-LDP randomizer over (n, k)."""
    if epsilon <= 0:
        raise ParameterError("epsilon must be > 0")
    if n < 2 or k < 2:
        raise ParameterError("n and k must be >= 2")
    return min(epsilon * LOG2_E, epsilon * epsilon * LOG2_E, math.log2(n), math.log2(k))


def alpha_from_bayes_error(beta: float, n: int) -> float:
    """Alpha at the equality point of the Bayes-error bound, clamped at 0.

    Some (beta, n) pairs put the bound below zero (e.g. beta = 0.95 with
    n = 45,222); the clamp keeps those grid points runnable, and
    :func:`beta_epsilons` tags the run ``alpha_clamped``.
    """
    if not (0.0 < beta < 1.0):
        raise ParameterError("beta must lie in (0, 1)")
    if n < 2:
        raise ParameterError("n must be >= 2")
    return max(0.0, (1.0 - beta) * math.log2(n) - 1.0)


def bayes_alpha_clamped(beta: float, n: int) -> bool:
    """True when alpha_from_bayes_error hit its clamp at 0."""
    return (1.0 - beta) * math.log2(n) - 1.0 < 0.0


def epsilon_from_alpha(alpha: float, n: int, k: int) -> EpsilonDecision:
    """Invert the alpha budget into an epsilon, or decide to pass through.

    The epsilon branch inverts the two epsilon terms of the alpha formula:
    the linear term binds for eps >= 1 and the quadratic one below it, so
    the inverse is alpha/log2(e) when that is >= 1 and sqrt(alpha/log2(e))
    otherwise (continuous at eps = 1, where the terms cross).
    """
    if alpha < 0:
        raise ParameterError("alpha must be >= 0")
    if n < 2 or k < 2:
        raise ParameterError("n and k must be >= 2")
    if math.log2(k) <= alpha or math.log2(n) <= alpha:
        return EpsilonDecision(epsilon=math.inf, pass_through=True)
    linear = alpha / LOG2_E
    eps = linear if linear >= 1.0 else math.sqrt(linear)
    return EpsilonDecision(epsilon=eps, pass_through=False)


def beta_epsilons(beta: float, n: int, ks: Sequence[int]) -> tuple[list[float], list[str]]:
    """Per-attribute epsilons for a target Bayes error beta over n users.

    An attribute whose raw value may pass through gets inf; one whose alpha
    admits no randomizer gets ``EPSILON_FLOOR``.  The flags are
    ``alpha_clamped`` (alpha hit its clamp at 0), then ``epsilon_floor``
    (some attribute got the floor).
    """
    alpha = alpha_from_bayes_error(beta, n)
    decisions = [epsilon_from_alpha(alpha, n, k) for k in ks]
    floored = [not dec.pass_through and dec.epsilon <= 0.0 for dec in decisions]
    epsilons = [math.inf if dec.pass_through else EPSILON_FLOOR if low else dec.epsilon
                for dec, low in zip(decisions, floored)]
    flags = [flag for flag, hit in (("alpha_clamped", bayes_alpha_clamped(beta, n)),
                                    ("epsilon_floor", any(floored))) if hit]
    return epsilons, flags
