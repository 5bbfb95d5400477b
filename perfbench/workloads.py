"""Workload table of the ldpsim benchmark: configs, work counts, output checks.

Each workload is one experiment kind run through ``ldpsim.harness`` on a
fixed grid.  The workload seed becomes the config's master seed, so the
same seed gives the same inputs and the same result table.

The checks read the exported CSV and count the result rows that are missing
or that break a property the simulator guarantees; that count is the
benchmark's ``failed`` figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# Four standard deviations: a correct table fails one of these checks with
# probability well under 1 % per seed.
SIGMAS = 4.0

# Criterion 7's cap on sampled-attribute inference accuracy for the
# five-attribute zipf shape below (seed-commit maximum: 31.7 %).
AIF_CAP = 35.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    config: dict  # config keys other than experiment, seed and out
    users: int    # n: simulated users per collection
    reports: Callable[["Workload"], int]
    expected_rows: Callable[["Workload"], int]
    check: Callable[["Workload", list], int]

    @property
    def threads(self) -> int:
        return int(self.config["threads"])

    def values(self, key: str) -> list[str]:
        return [v.strip() for v in str(self.config[key]).split(",")]

    def config_text(self, seed: int, out: str) -> str:
        lines = [f"experiment = {self.kind}", f"seed = {seed}", f"out = {out}"]
        lines += [f"{key} = {value}" for key, value in self.config.items()]
        return "\n".join(lines) + "\n"


def _float(row: dict, key: str) -> float | None:
    try:
        return float(row.get(key))
    except (TypeError, ValueError):
        return None


def _in_percent_range(value: float | None, cap: float = 100.0) -> bool:
    return value is not None and math.isfinite(value) and 0.0 <= value <= cap


# ---------------------------------------------------------------------------
# attack_oracle: empirical attack accuracy against the closed form
# ---------------------------------------------------------------------------

def _oracle_rows(w: Workload) -> int:
    return 2 * len(w.values("protocols")) * len(w.values("epsilons")) * len(w.values("ks"))


def _oracle_reports(w: Workload) -> int:
    return w.users * _oracle_rows(w) // 2


def _oracle_check(w: Workload, rows: list) -> int:
    """Each acc_empirical_k* row lies within 4 exported stderrs of its analytic pair."""
    analytic = {}
    for r in rows:
        if r["metric"].startswith("acc_analytic_k"):
            key = (r["protocol"], r["epsilon"], r["metric"][len("acc_analytic_"):], r["run"])
            analytic[key] = _float(r, "value")
    failed = max(0, _oracle_rows(w) - len(rows))
    for r in rows:
        value = _float(r, "value")
        if r["metric"].startswith("acc_analytic_k"):
            failed += not _in_percent_range(value)
            continue
        key = (r["protocol"], r["epsilon"], r["metric"][len("acc_empirical_"):], r["run"])
        ana, se = analytic.get(key), _float(r, "stderr")
        ok = (_in_percent_range(value) and ana is not None and se is not None
              and abs(value - ana) <= SIGMAS * se)
        failed += not ok
    return failed


# ---------------------------------------------------------------------------
# reident: RID-ACC bounds, top-k monotonicity, null-model calibration
# ---------------------------------------------------------------------------

def _reident_grid(w: Workload) -> list[tuple]:
    """Grid points in the harness's task order: protocols x privacy x models."""
    privacy = [("epsilon", e) for e in w.values("epsilons")]
    privacy += [("beta", b) for b in w.values("betas")]
    return [(p, pv, m) for p in w.values("protocols") for pv in privacy
            for m in w.values("attack_models")]


def _reident_block(w: Workload) -> int:
    """Rows one grid point exports: one per (survey >= 2, top-k)."""
    return (int(w.config["surveys"]) - 1) * len(w.values("top_k"))


def _reident_rows(w: Workload) -> int:
    return len(_reident_grid(w)) * _reident_block(w)


def _reident_reports(w: Workload) -> int:
    return w.users * int(w.config["surveys"]) * len(_reident_grid(w))


def _reident_check(w: Workload, rows: list) -> int:
    """Values in [0, 100]; top-1 <= top-5 <= top-10 per survey; null hits at 100 k / n.

    The table has no attack-model column, so rows are paired with the grid
    by position: the harness sorts them by (grid index, run).
    """
    failed = max(0, _reident_rows(w) - len(rows))
    block = _reident_block(w)
    null_rows: dict[int, list[float]] = {}
    for gi, (_, _, model) in enumerate(_reident_grid(w)):
        chunk = rows[gi * block:(gi + 1) * block]
        by_survey: dict[str, list[tuple[int, float]]] = {}
        for r in chunk:
            value = _float(r, "value")
            top, _, survey = r["metric"].removeprefix("rid_acc_top").partition("_sv")
            if not (_in_percent_range(value) and top.isdigit() and survey):
                failed += 1
                continue
            by_survey.setdefault(survey, []).append((int(top), value))
            if model == "null":
                null_rows.setdefault(int(top), []).append(value)
        for pairs in by_survey.values():
            pairs.sort()
            failed += sum(1 for lo, hi in zip(pairs, pairs[1:]) if hi[1] < lo[1])
    n = w.users
    for top, values in null_rows.items():
        # each null row's hit count is Binomial(n, top / n), independently
        hits = sum(round(v * n / 100.0) for v in values)
        mean = len(values) * top
        sd = math.sqrt(mean * (1.0 - top / n))
        if abs(hits - mean) > SIGMAS * sd:
            failed += len(values)
    return failed


# ---------------------------------------------------------------------------
# attr_infer: AIF-ACC bounds
# ---------------------------------------------------------------------------

def _attr_points(w: Workload) -> int:
    return len(w.values("variants")) * len(w.values("epsilons")) * len(w.values("solutions"))


def _attr_rows(w: Workload) -> int:
    return _attr_points(w) * len(w.values("attack"))


def _attr_reports(w: Workload) -> int:
    """n real tuples plus s = s_mult * n synthetic tuples for each of nk and hm."""
    synthetic = sum(1 for m in w.values("attack") if m in ("nk", "hm"))
    s = round(float(w.config["s_mult"]) * w.users)
    return _attr_points(w) * (w.users + synthetic * s)


def _attr_check(w: Workload, rows: list) -> int:
    failed = max(0, _attr_rows(w) - len(rows))
    return failed + sum(1 for r in rows if not _in_percent_range(_float(r, "value"), AIF_CAP))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="reident_smp",
            kind="reident",
            config={
                "dataset": "fixture:adult_style_5000",
                "protocols": "grr",
                "solution": "smp",
                "epsilons": "4",
                "betas": "0.5",
                "surveys": "5",
                "attack_models": "fk, null",
                "top_k": "1, 5, 10",
                "threads": "2",
            },
            users=5000,  # rows of the adult_style_5000 fixture
            reports=_reident_reports,
            expected_rows=_reident_rows,
            check=_reident_check,
        ),
        Workload(
            name="oracle_sweep",
            kind="attack_oracle",
            config={
                "protocols": "grr, olh, ss, sue, oue",
                "epsilons": "1, 4",
                "ks": "74, 16, 2",
                "n": "200000",
                "threads": "1",
            },
            users=200000,
            reports=_oracle_reports,
            expected_rows=_oracle_rows,
            check=_oracle_check,
        ),
        Workload(
            name="fakedata_infer",
            kind="attr_infer",
            config={
                "dataset": "synth:zipf",
                "synth_n": "100000",
                "synth_ks": "16, 12, 8, 6, 4",
                "synth_zipf_a": "0.6",
                "epsilons": "1, 4",
                "variants": "grr, oue_r",
                "solutions": "rs_fd, rs_rfd",
                "attack": "nk, pk, hm",
                "s_mult": "1.0",
                "threads": "1",
            },
            users=100000,
            reports=_attr_reports,
            expected_rows=_attr_rows,
            check=_attr_check,
        ),
    )
}
