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
