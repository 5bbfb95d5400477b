import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ldpsim import cli
from ldpsim.cli import main
from ldpsim.harness import KEYS, ExperimentConfig
from ldpsim.oracles import PROTOCOLS


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


def test_runtime_error_exit_code(tmp_path, analytic_cfg, monkeypatch):
    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "export_results", fail)
    rc = run_cli(["analytic", "--config", str(analytic_cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 3


@pytest.mark.parametrize("out", ["no/such/dir/x.csv", "file.txt/x.csv", ".", "/proc/x.csv"],
                         ids=["missing-dir", "file-as-dir", "directory", "proc"])
def test_unwritable_out_is_config_error(tmp_path, monkeypatch, out):
    # each exited 3, after the whole grid had run; now refused before any grid point
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file.txt").write_text("")
    (tmp_path / "a.cfg").write_text("seed = 1\nepsilons = 1\n")
    monkeypatch.setattr(cli, "run_experiment", pytest.fail)
    assert run_cli(["analytic", "--config", "a.cfg", "--out", out]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.cfg", "file.txt"]


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


def test_import_does_not_load_scipy():
    # the runtime needs numpy only; scipy.stats alone takes about a second to import
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, ldpsim, ldpsim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=src, check=True)
    assert proc.stdout.strip() == "[]"


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


@pytest.mark.parametrize("command,body,seed", [
    ("reident", "solution = rs_fd\nprotocols = oue_r\nepsilons = 1\nsurveys = 3\n", 4),
    ("attr-infer", "solutions = rs_fd\nvariants = oue_z, oue_r, sue_z, sue_r\n"
                   "epsilons = 0.5\nattack = nk\n", 2),
    ("attr-infer", "solutions = rs_fd\nvariants = oue_z, oue_r, sue_z, sue_r\n"
                   "epsilons = 0.5\nattack = nk\n", 4),
], ids=["reident-seed4", "attr-infer-seed2", "attr-infer-seed4"])
def test_all_nonpositive_estimates_fall_back_to_uniform(tmp_path, command, body, seed):
    # on 100 users some attribute's estimates all come out <= 0; the nk
    # learning set draws that attribute uniformly and flags the rows
    cfg = tmp_path / "f.cfg"
    cfg.write_text("dataset = fixture:adult_style_100\n" + body)
    out = tmp_path / "out.csv"
    assert run_cli([command, "--config", str(cfg), "--seed", str(seed), "--out", str(out)]) == 0
    assert "estimate_fallback" in out.read_text()


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_env_var_checked_like_the_flag(tmp_path, analytic_cfg, monkeypatch, threads):
    monkeypatch.setenv("LDPSIM_THREADS", threads)
    assert run_cli(["analytic", "--config", str(analytic_cfg),
                    "--out", str(tmp_path / "r.csv")]) == 2
    assert run_cli(["analytic", "--config", str(analytic_cfg), "--threads", threads,
                    "--out", str(tmp_path / "r.csv")]) == 2


def test_threads_precedence(tmp_path, monkeypatch):
    # flag > LDPSIM_THREADS > config > 1, all checked by the one config validation
    seen = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg.threads) or [])
    cfg = tmp_path / "a.cfg"
    cfg.write_text("epsilons = 1\nseed = 1\n")
    cfg3 = tmp_path / "a3.cfg"
    cfg3.write_text("epsilons = 1\nseed = 1\nthreads = 3\n")

    def threads(config, *flag):
        seen.clear()
        rc = run_cli(["analytic", "--config", str(config), *flag,
                      "--out", str(tmp_path / "r.csv")])
        return rc, seen[:]

    monkeypatch.delenv("LDPSIM_THREADS", raising=False)
    assert threads(cfg) == (0, [1])
    assert threads(cfg3) == (0, [3])
    monkeypatch.setenv("LDPSIM_THREADS", "5")
    assert threads(cfg3) == (0, [5])
    assert threads(cfg3, "--threads", "2") == (0, [2])
    monkeypatch.setenv("LDPSIM_THREADS", "soup")
    assert threads(cfg3) == (2, [])


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
    ("attack-oracle", "n = 50\nks = 4\nepsilons = 45\nprotocols = grr, olh\n"),
    ("attack-oracle", _ORACLE + "epsilons = abc\n"),
    ("attack-oracle", "ks = 4\nprotocols = grr\nepsilons = 1\nn = 0\n"),
    ("attack-oracle", "n = 50\nprotocols = grr\nepsilons = 1\nks = 74, 1\n"),
    ("attack-oracle", _ORACLE + "epsilons = 1\nruns = abc\n"),
    ("attack-oracle", _ORACLE + "epsilons = 1\nthreads = abc\n"),
    ("attack-oracle", "ks = 4\nprotocols = grr\nepsilons = 1\nn = 1e5\n"),
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
    ("analytic", "epsilons = 1\nmodes = foo\n"),
    ("reident", _FIXTURE + "epsilons = 1\nattack_models = xx\n"),
    ("attr-infer", _FIXTURE + "epsilons = 1\nattack = xx\n"),
    ("mse", "dataset = 5\nepsilons = 1\n"),
    ("mse", "dataset = synth:zipf\nsynth_n = 200\nepsilons = 1\nsynth_ks = 4, 1\n"),
    ("mse", "dataset = synth:zipf\nepsilons = 1\nsynth_n = 0\n"),
    ("mse", _FIXTURE + "epsilons = 1\nsubsample = -1\n"),
    ("attr-infer", _FIXTURE + "epsilons = 1\ns_mult = 0\n"),
    ("attr-infer", _FIXTURE + "epsilons = 1\nnpk_frac = 0\n"),
    ("attr-infer", _FIXTURE + "epsilons = 1\ns_mult = 0.001\nattack = hm\n"),
    ("reident", _FIXTURE + "epsilons = 1\nsolution = rs_fd\nnk_s_mult = 0\n"),
    ("reident", _FIXTURE + "epsilons = 1\nsolution = rs_fd\nnk_s_mult = 0.001\n"),
    ("reident", _FIXTURE + "epsilons = 1\ns_mult = 2\n"),
    ("analytic", _FIXTURE + "epsilons = 1\n"),
    ("analytic", "epsilons = 1\nruns = 1, 2\n"),
    ("analytic", "epsilons = 1\nks = ,\n"),
    ("analytic", "epsilons = 1\nprotocols = ,\n"),
    ("reident", _FIXTURE + "epsilons = 1\ntop_k = ,\n"),
    ("attr-infer", _FIXTURE + "epsilons = 1\nnpk_frac = 0.001\n"),
    ("attr-infer", _FIXTURE + "epsilons = 1\nnpk_frac = 0.999\nattack = hm\n"),
    ("reident", _FIXTURE + "subsample = 1\nbetas = 0.5\nsurveys = 2\n"),
    ("reident", "dataset = synth:zipf\nsynth_n = 1\nbetas = 0.5\nsurveys = 2\n"),
], ids=["oracle-eps-nan", "oracle-eps-inf", "oracle-eps-negative", "oracle-eps-exp-overflow",
        "oracle-eps-olh-g-overflow", "oracle-eps-text", "oracle-n-zero", "oracle-k-one",
        "oracle-runs-text", "oracle-threads-text", "oracle-n-float", "analytic-k-one",
        "analytic-runs-text", "mse-threads-text", "mse-amplified-eps-overflow",
        "attr-infer-eps-nan", "reident-olh-g-overflow", "reident-min-frac-zero",
        "reident-min-frac-above-one", "reident-min-frac-nan", "reident-min-frac-text",
        "reident-beta-above-one", "reident-beta-nan", "reident-top-k-zero",
        "reident-nk-s-mult-text", "reident-all-attributes-int", "mse-zipf-a-text",
        "analytic-mode-unknown", "reident-attack-model-unknown", "attr-infer-attack-unknown",
        "mse-dataset-int", "mse-synth-k-one", "mse-synth-n-zero", "mse-subsample-negative",
        "attr-infer-s-mult-zero", "attr-infer-npk-frac-zero", "attr-infer-s-mult-no-profile",
        "reident-rs-fd-nk-s-mult-zero", "reident-rs-fd-nk-s-mult-no-profile",
        "reident-s-mult-unread", "analytic-dataset-unread", "analytic-runs-list",
        "analytic-ks-empty", "analytic-protocols-empty", "reident-top-k-empty",
        "attr-infer-npk-frac-no-compromised-user", "attr-infer-npk-frac-no-test-user",
        "reident-beta-one-user", "reident-beta-synth-one-user"])
def test_bad_grid_value_is_config_error(tmp_path, command, body):
    # each of these exited 3, 1 with a traceback or 0 ignoring the value (a key the
    # kind does not read), most after the run had started
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = 1\n" + body)
    out = tmp_path / "out.csv"
    assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_attack_oracle_large_olh_epsilon_still_runs(tmp_path):
    # OLH's g ~ e^43 still fits int64 buckets
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("seed = 1\nn = 50\nks = 4\nprotocols = olh\nepsilons = 30, 43\n")
    out = tmp_path / "out.csv"
    assert run_cli(["attack-oracle", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()


def test_reident_one_user_epsilon_still_runs(tmp_path):
    # only a beta budget needs n >= 2; an epsilon grid ranks the one user's own record
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("seed = 1\n" + _FIXTURE + "subsample = 1\nepsilons = 1\nsurveys = 2\n")
    out = tmp_path / "out.csv"
    assert run_cli(["reident", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("body", [
    "dataset = fixture:nope\n",
    "dataset = {tmp}/missing.csv\n",
    "dataset = {tmp}/data.csv\ncolumns = a, z\n",
    "dataset = fixture:adult_style_100\nsubsample = 500\n",
    "dataset = {tmp}/no_id.csv\n",
    "dataset = {tmp}/repeated.csv\n",
    "dataset = {tmp}/constant.csv\n",
    "dataset = {tmp}/ok.csv\ncolumns = a, a\n",
    "dataset = synth:zipf\ncolumns = a0\n",
    "dataset = synth:zipf\nid_column = key\n",
    "dataset = fixture:adult_style_100\ncolumns = age, nope\n",
    "dataset = fixture:adult_style_100\ncolumns = id, age\n",
], ids=["unknown-fixture", "unreadable-csv", "missing-column", "subsample-above-n",
        "missing-id-column", "repeated-column", "constant-column", "repeated-selection",
        "synth-columns", "synth-id-column", "fixture-missing-column",
        "id-as-attribute"])
def test_bad_dataset_spec_is_config_error(tmp_path, body):
    # each exited 3, as a runtime error, or (the repeated column) read its first
    # occurrence twice, or (the repeated selection) loaded one column twice, or
    # (the id as an attribute) made every record unique; each is now refused
    # before any task runs
    (tmp_path / "data.csv").write_text("a,b\nx,y\n")
    (tmp_path / "no_id.csv").write_text("color,size\nred,S\nblue,M\n")
    (tmp_path / "repeated.csv").write_text("id,a,a\n1,x,p\n2,y,q\n")
    (tmp_path / "constant.csv").write_text("id,a,b\n1,x,p\n2,x,q\n")
    (tmp_path / "ok.csv").write_text("id,a,b\n1,x,p\n2,y,q\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = 1\nepsilons = 1\nsolutions = rs_fd\n" + body.format(tmp=tmp_path))
    out = tmp_path / "out.csv"
    assert run_cli(["mse", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def _some(options):
    return st.lists(st.sampled_from(options), min_size=1, max_size=3)


# analytic keys drawn from their domains; epsilons also calibrate every protocol
_ANALYTIC = st.fixed_dictionaries(
    {"seed": st.integers(0, 2**70), "epsilons": st.lists(st.floats(0.01, 30), min_size=1,
                                                        max_size=3)},
    optional={"runs": st.integers(1, 3), "threads": st.integers(1, 2),
              "format": st.sampled_from(("csv", "jsonl")), "protocols": _some(PROTOCOLS),
              "ks": st.lists(st.integers(2, 100), min_size=1, max_size=4),
              "modes": _some(("uniform", "non_uniform"))},
)


def _render(keys):
    def text(v):
        return ", ".join(map(str, v)) if isinstance(v, list) else str(v)
    return "".join(f"{key} = {text(value)}\n" for key, value in keys.items())


def _run_analytic(keys):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "a.cfg", Path(tmp) / "out"
        cfg.write_text(_render(keys))
        rc = main(["analytic", "--config", str(cfg), "--out", str(out)])
        return rc, out.exists()


@settings(max_examples=40, deadline=None)
@given(keys=_ANALYTIC)
def test_analytic_config_from_valid_domains_runs(keys):
    assert _run_analytic(keys) == (0, True)


@settings(max_examples=40, deadline=None)
@given(keys=_ANALYTIC,
       unread=st.sampled_from(sorted(k for k, m in KEYS.items() if "analytic" not in m["kinds"])))
def test_key_the_kind_does_not_read_is_config_error(keys, unread):
    # the key's default value; the kind check runs before any type or domain check
    default = getattr(ExperimentConfig(), unread)
    assert _run_analytic({**keys, unread: default}) == (2, False)
