"""Golden result tables: small experiment grids must reproduce stored tables byte for byte.

Each entry of ``GOLDEN`` is one config file run through the harness at seed
1 and exported to ``tests/golden/<name>``.  The tables cover every random
stream a refactor could move: reident under smp (grr / olh / oue; fk, pk and
null matching; epsilon and beta budgets) and under rs_fd / rs_rfd over every
fake-data tag, attr_infer and mse over every tag x solution, analytic and
attack_oracle, and one JSONL export.

The files were written by running this module as a script::

    PYTHONPATH=src python tests/test_golden.py

A change that moves a random stream on purpose regenerates them the same way
and says so in CHANGES.md; any other change must leave them untouched.
"""

from __future__ import annotations

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
}


def _run(name: str, out: Path) -> Path:
    text = "\n".join(line.strip() for line in GOLDEN[name].splitlines())
    cfg = build_config(parse_config(text), {"seed": 1, "out": str(out)})
    return export_results(run_experiment(cfg), cfg.out, cfg.format)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_table(name, tmp_path):
    got = _run(name, tmp_path / name).read_bytes()
    assert got == (GOLDEN_DIR / name).read_bytes(), f"{name} differs from its golden table"


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(GOLDEN):
        print("wrote", _run(name, GOLDEN_DIR / name))
