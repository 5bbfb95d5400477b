import subprocess
import sys

import pytest

from ldpsim.cli import main


def run_cli(args):
    return main(args)


@pytest.fixture()
def analytic_cfg(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text(
        "epsilons = 1, 2\n"
        "ks = 5, 3\n"
        "protocols = grr\n"
        "seed = 42\n"
    )
    return path


def test_analytic_success(tmp_path, analytic_cfg, capsys):
    out = tmp_path / "r.csv"
    rc = run_cli(["analytic", "--config", str(analytic_cfg), "--out", str(out)])
    assert rc == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out


def test_missing_config_is_config_error(tmp_path):
    rc = run_cli(["analytic", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2


def test_missing_seed_is_config_error(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("epsilons = 1\n")
    rc = run_cli(["analytic", "--config", str(cfg)])
    assert rc == 2


def test_conflicting_experiment_kind(tmp_path, analytic_cfg):
    cfg = tmp_path / "b.cfg"
    cfg.write_text("experiment = mse\nepsilons = 1\nseed = 1\n")
    rc = run_cli(["analytic", "--config", str(cfg)])
    assert rc == 2


def test_runtime_error_exit_code(tmp_path, analytic_cfg):
    rc = run_cli([
        "analytic", "--config", str(analytic_cfg),
        "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv"),
    ])
    assert rc == 3


def test_dataset_needed_is_config_error(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("epsilons = 1\nseed = 1\n")
    rc = run_cli(["mse", "--config", str(cfg)])
    assert rc == 2


def test_flag_overrides_and_formats(tmp_path, analytic_cfg):
    out = tmp_path / "r.jsonl"
    rc = run_cli([
        "analytic", "--config", str(analytic_cfg), "--out", str(out),
        "--format", "jsonl", "--seed", "7", "--runs", "2",
    ])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2 * 2 * 2  # eps x modes x runs
    assert '"seed": 7' in lines[0]


def test_seed_flag_without_config(tmp_path):
    # config is optional when flags supply everything the kind needs
    out = tmp_path / "r.csv"
    rc = run_cli(["analytic", "--seed", "3", "--out", str(out)])
    assert rc == 2  # epsilons grid still missing -> config error


def test_rerun_byte_identical(tmp_path, analytic_cfg):
    o1, o2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run_cli(["analytic", "--config", str(analytic_cfg), "--out", str(o1)]) == 0
    assert run_cli(["analytic", "--config", str(analytic_cfg), "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_console_entry_point(tmp_path, analytic_cfg):
    out = tmp_path / "r.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "ldpsim.cli", "analytic",
         "--config", str(analytic_cfg), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


@pytest.mark.parametrize("command,body", [
    ("mse", "solutions = rs_fdd\n"),
    ("reident", "solution = rs_fd\nprotocols = oue\n"),
    ("attr-infer", "solutions = rsfd\n"),
    ("reident", "solution = rsfd\n"),
    ("mse", "variants = sue_z\nsolutions = rs_rfd\n"),
], ids=["mse-unknown-solution", "reident-protocol-for-fake-data", "attr-infer-unknown-solution",
        "reident-unknown-solution", "mse-variant-not-run-by-solution"])
def test_unknown_solution_or_variant_is_config_error(tmp_path, command, body):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dataset = fixture:adult_style_100\nepsilons = 1\nseed = 1\n" + body)
    out = tmp_path / "out.csv"
    rc = run_cli([command, "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("surveys", [0, 1])
def test_reident_needs_two_surveys(tmp_path, surveys):
    # RID is scored from the second survey on: fewer surveys would export no rows
    cfg = tmp_path / "r.cfg"
    cfg.write_text(f"dataset = fixture:adult_style_100\nepsilons = 1\nseed = 1\nsurveys = {surveys}\n")
    out = tmp_path / "out.csv"
    assert run_cli(["reident", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("solutions,prior_epsilon,code", [
    ("rs_fd", "0", 0),
    ("rs_rfd", "0", 2),
    ("rs_fd, rs_rfd", "nan", 2),
    ("rs_rfd", "inf", 2),
])
def test_mse_prior_epsilon_checked_only_for_rs_rfd(tmp_path, solutions, prior_epsilon, code):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("dataset = fixture:adult_style_100\nepsilons = 1\nseed = 1\n"
                   f"solutions = {solutions}\nprior_epsilon = {prior_epsilon}\n")
    out = tmp_path / "out.csv"
    assert run_cli(["mse", "--config", str(cfg), "--out", str(out)]) == code
    assert out.exists() == (code == 0)


_ORACLE = "n = 50\nks = 4\nprotocols = grr\n"
_FIXTURE = "dataset = fixture:adult_style_100\n"


@pytest.mark.parametrize("command,body", [
    ("attack-oracle", _ORACLE + "epsilons = nan\n"),
    ("attack-oracle", _ORACLE + "epsilons = inf\n"),
    ("attack-oracle", _ORACLE + "epsilons = -1\n"),
    ("attack-oracle", _ORACLE + "epsilons = 1, 800\n"),
    ("attack-oracle", _ORACLE + "epsilons = 45\nprotocols = grr, olh\n"),
    ("attack-oracle", _ORACLE + "epsilons = abc\n"),
    ("attack-oracle", _ORACLE + "epsilons = 1\nn = 0\n"),
    ("attack-oracle", _ORACLE + "epsilons = 1\nks = 74, 1\n"),
    ("attack-oracle", _ORACLE + "epsilons = 1\nruns = abc\n"),
    ("attack-oracle", _ORACLE + "epsilons = 1\nthreads = abc\n"),
    ("attack-oracle", _ORACLE + "epsilons = 1\nn = 1e5\n"),
    ("analytic", "epsilons = 1\nks = 5, 1\n"),
    ("analytic", "epsilons = 1\nruns = abc\n"),
    ("mse", _FIXTURE + "epsilons = 1\nsolutions = rs_fd\nthreads = abc\n"),
    ("mse", _FIXTURE + "epsilons = 709\nsolutions = rs_fd\n"),
    ("attr-infer", _FIXTURE + "epsilons = nan\n"),
    ("reident", _FIXTURE + "protocols = olh\nepsilons = 44\n"),
    ("reident", _FIXTURE + "epsilons = 1\nsurvey_min_frac = 0\n"),
    ("reident", _FIXTURE + "epsilons = 1\nsurvey_min_frac = 1.5\n"),
    ("reident", _FIXTURE + "epsilons = 1\nsurvey_min_frac = nan\n"),
    ("reident", _FIXTURE + "epsilons = 1\nsurvey_min_frac = abc\n"),
    ("reident", _FIXTURE + "betas = 1.5\n"),
    ("reident", _FIXTURE + "betas = 0.5, nan\n"),
    ("reident", _FIXTURE + "epsilons = 1\ntop_k = 0\n"),
    ("reident", _FIXTURE + "epsilons = 1\nnk_s_mult = abc\n"),
    ("reident", _FIXTURE + "epsilons = 1\nsurvey_all_attributes = 1\n"),
    ("mse", "dataset = synth:zipf\nepsilons = 1\nsynth_zipf_a = abc\n"),
], ids=["oracle-eps-nan", "oracle-eps-inf", "oracle-eps-negative", "oracle-eps-exp-overflow",
        "oracle-eps-olh-g-overflow", "oracle-eps-text", "oracle-n-zero", "oracle-k-one",
        "oracle-runs-text", "oracle-threads-text", "oracle-n-float", "analytic-k-one",
        "analytic-runs-text", "mse-threads-text", "mse-amplified-eps-overflow",
        "attr-infer-eps-nan", "reident-olh-g-overflow", "reident-min-frac-zero",
        "reident-min-frac-above-one", "reident-min-frac-nan", "reident-min-frac-text",
        "reident-beta-above-one", "reident-beta-nan", "reident-top-k-zero",
        "reident-nk-s-mult-text", "reident-all-attributes-int", "mse-zipf-a-text"])
def test_bad_grid_value_is_config_error(tmp_path, command, body):
    # each of these exited 3, 1 with a traceback or 0 ignoring the value, most after
    # the run had started
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = 1\n" + body)
    out = tmp_path / "out.csv"
    assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_attack_oracle_large_olh_epsilon_still_runs(tmp_path):
    # OLH's g ~ e^43 still fits int64 buckets
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("seed = 1\n" + _ORACLE + "protocols = olh\nepsilons = 30, 43\n")
    out = tmp_path / "out.csv"
    assert run_cli(["attack-oracle", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()
