"""Golden result tables: small experiment grids must reproduce stored tables byte for byte.

Each entry of ``GOLDEN`` is one config file run through the harness at seed
1 and exported to ``tests/golden/<name>``.  The tables pin reident under smp
(grr / olh / oue; fk, pk and null matching; epsilon and beta budgets) and
under rs_fd / rs_rfd over every fake-data tag, attr_infer and mse over every
tag x solution, analytic, attack_oracle, and one JSONL export;
``reident_smp_with_replacement.csv`` runs SMP sampling with replacement.  Most
of their streamed (n, k) kernels fit in one row block; ``attack_oracle_blocks.csv``
runs the OLH, SUE and OUE attacks over 3 blocks (k = 74) and 12 (k = 300, a
uint16 pick), and ``attack_oracle_empty_rows.csv`` the OLH and OUE attacks
over 4 blocks (k = 4, epsilon = 4) in which about 47 % of the reports support
no value, so the pick draws their values block by block.  They pin only the
streams these configs reach.

The files were written by running this module as a script::

    PYTHONPATH=src python tests/test_golden.py

A change that moves a random stream on purpose regenerates them the same way
and says so in CHANGES.md; any other change must leave them untouched.
"""

from __future__ import annotations

import csv
from pathlib import Path

import pytest

from ldpsim.harness import build_config, export_results, parse_config, run_experiment

GOLDEN_DIR = Path(__file__).parent / "golden"

_REIDENT_RS = """
experiment = reident
dataset = fixture:adult_style_5000
subsample = 600
surveys = 4
top_k = 1, 10
"""

# beta budgets under the fake-data solutions: pass-through attributes,
# alpha_clamped with epsilon_floor at beta = 0.95, and the attacker's
# estimate_fallback (plus prior_fallback on the acs table)
_REIDENT_BETA = """
experiment = reident
subsample = 600
protocols = grr, oue_r
epsilons = 1
betas = 0.3, 0.95
surveys = 3
top_k = 1, 10
"""

GOLDEN = {
    "reident_smp.csv": """
        experiment = reident
        dataset = fixture:adult_style_5000
        subsample = 600
        protocols = grr, olh, oue
        epsilons = 1, 4
        betas = 0.5
        attack_models = fk, pk, null
        surveys = 3
        top_k = 1, 10
    """,
    "reident_rs_fd.csv": _REIDENT_RS + """
        solution = rs_fd
        protocols = grr, sue_z, oue_z, sue_r, oue_r
        epsilons = 2
        betas = 0.5
    """,
    "reident_rs_rfd.csv": _REIDENT_RS + """
        solution = rs_rfd
        protocols = grr, sue_r, oue_r
        epsilons = 2
        betas = 0.5
    """,
    "reident_beta_rs_fd.csv": _REIDENT_BETA + """
        dataset = fixture:adult_style_5000
        solution = rs_fd
    """,
    "reident_rs_rfd_acs.csv": _REIDENT_BETA + """
        dataset = fixture:acs_style_1000
        solution = rs_rfd
    """,
    "attr_infer_rs_fd.csv": """
        experiment = attr_infer
        dataset = fixture:acs_style_1000
        columns = AGEP, SCHL, MAR, SEX, ESP, RELP
        solutions = rs_fd
        variants = grr, sue_z, oue_z, sue_r, oue_r
        epsilons = 1, 2, 4
    """,
    "attr_infer_rs_rfd.jsonl": """
        experiment = attr_infer
        format = jsonl
        dataset = fixture:acs_style_1000
        columns = AGEP, SCHL, MAR, SEX, ESP, RELP
        solutions = rs_rfd
        variants = grr, sue_r, oue_r
        epsilons = 1, 2, 4
    """,
    # a 300-value domain: the fake slots and the nk/hm profile draws take the
    # categorical kernel's searchsorted branch (above 256 values)
    "attr_infer_k300.csv": """
        experiment = attr_infer
        dataset = synth:zipf
        synth_n = 3000
        synth_ks = 300, 7, 2
        synth_zipf_a = 1.1
        solutions = rs_fd, rs_rfd
        variants = grr, oue_r
        epsilons = 1, 4
    """,
    "mse_rs_fd.csv": """
        experiment = mse
        dataset = fixture:adult_style_5000
        solutions = rs_fd
        variants = grr, sue_z, oue_z, sue_r, oue_r
        epsilons = 0.5, 2
        runs = 2
    """,
    "mse_both.csv": """
        experiment = mse
        dataset = fixture:adult_style_5000
        solutions = rs_fd, rs_rfd
        variants = grr, sue_r, oue_r
        epsilons = 0.5, 2
        runs = 2
    """,
    "analytic.csv": """
        experiment = analytic
        protocols = grr, olh, ss, sue, oue
        epsilons = 0.5, 1, 4
        ks = 74, 7, 16
    """,
    "attack_oracle.csv": """
        experiment = attack_oracle
        protocols = grr, olh, ss, sue, oue
        epsilons = 1, 4
        ks = 2, 16, 74
        n = 2000
    """,
    "attack_oracle_blocks.csv": """
        experiment = attack_oracle
        protocols = olh, sue, oue
        epsilons = 1
        ks = 74, 300
        n = 10000
    """,
    # 4 blocks of block_rows(4) = 65,536 reports, about 47 % of them with no
    # supported value: pins the pick's empty-row draws block by block
    "attack_oracle_empty_rows.csv": """
        experiment = attack_oracle
        protocols = olh, oue
        epsilons = 4
        ks = 4
        n = 200000
    """,
    "reident_smp_with_replacement.csv": """
        experiment = reident
        dataset = fixture:adult_style_5000
        subsample = 500
        protocols = grr, oue
        epsilons = 4
        surveys = 3
        sampling_mode = with_replacement
        attack_models = fk, null
        top_k = 1, 5
    """,
}


def _run(name: str, out: Path) -> Path:
    text = "\n".join(line.strip() for line in GOLDEN[name].splitlines())
    cfg = build_config(parse_config(text), {"seed": 1, "out": str(out)})
    return export_results(run_experiment(cfg), cfg.out, cfg.format)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_table(name, tmp_path):
    got = _run(name, tmp_path / name).read_bytes()
    assert got == (GOLDEN_DIR / name).read_bytes(), f"{name} differs from its golden table"


def _rows(name: str) -> list[dict]:
    with (GOLDEN_DIR / name).open() as f:
        return list(csv.DictReader(f))


def test_multi_block_attacks_lie_near_their_analytic_accuracy():
    # the multi-block tables were pinned only with every empirical accuracy
    # within 4 stderrs of the exact one
    for name, points in (("attack_oracle_blocks.csv", 6), ("attack_oracle_empty_rows.csv", 2)):
        rows = _rows(name)
        analytic = {(r["protocol"], r["flags"]): float(r["value"])
                    for r in rows if r["metric"].startswith("acc_analytic")}
        empirical = [r for r in rows if r["metric"].startswith("acc_empirical")]
        assert len(empirical) == len(analytic) == points, name
        for r in empirical:
            gap = abs(float(r["value"]) - analytic[r["protocol"], r["flags"]])
            assert gap <= 4 * float(r["stderr"]), (name, r)


def test_null_matching_with_replacement_lies_near_chance():
    # the table was pinned only with every null row within 4 sigma of a
    # uniform guess's top-k accuracy 100 k / n; each protocol's 4 fk rows
    # (top 1, 5 x surveys 2, 3) come before its 4 null rows
    rows = _rows("reident_smp_with_replacement.csv")
    null = [r for i, r in enumerate(rows) if i // 4 % 2 == 1]
    assert len(rows) == 16 and {r["protocol"] for r in null} == {"grr", "oue"}
    n = 500
    for r in null:
        k = int(r["metric"].split("_top")[1].split("_")[0])
        sigma = 100 * (k / n * (1 - k / n) / n) ** 0.5
        assert abs(float(r["value"]) - 100 * k / n) <= 4 * sigma, r


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(GOLDEN):
        print("wrote", _run(name, GOLDEN_DIR / name))
