"""Monte-Carlo oracle for the sampling solution's full-profile accuracy (criterion 5).

Shared by test_acceptance and test_attacks; the library itself needs no such
function, as the reident kind runs the same survey step on real tables.
"""

from typing import Sequence

import numpy as np

from ldpsim.attacks import _smp_survey_step
from ldpsim.errors import ParameterError


def smp_attack_acc_mc(protocol: str, epsilon: float, ks: Sequence[int],
                      mode: str, n: int, rng: np.random.Generator) -> float:
    """Monte-Carlo full-profile attack accuracy for the sampling solution.

    Runs d surveys over all d attributes through the reident survey step
    (``attacks._smp_survey_step``).  ``uniform`` samples without replacement, so
    every user reports each attribute once; ``non_uniform`` samples with
    replacement, a repeat re-sends the memoized report, and a profile scores
    only when it is complete and every prediction is right.
    """
    sampling_mode = {"uniform": "without_replacement",
                     "non_uniform": "with_replacement"}.get(mode)
    if sampling_mode is None:
        raise ParameterError(f"unknown mode {mode!r}")
    if n < 1:
        raise ParameterError(f"sample size n must be >= 1, got {n!r}")
    d = len(ks)
    values = np.column_stack([rng.integers(0, k, size=n) for k in ks])
    profile = np.full((n, d), -1, dtype=np.int64)
    for _ in range(d):
        _smp_survey_step(values, ks, protocol, [epsilon] * d, np.arange(d),
                         sampling_mode, profile, rng, [])
    return 100.0 * float(np.mean((profile == values).all(axis=1)))
