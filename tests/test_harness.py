import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ldpsim import harness as hn
from ldpsim.datasets import laplace_prior, true_frequencies
from ldpsim.errors import ConfigError
from ldpsim.oracles import PROTOCOLS
from ldpsim.rng import stream


def test_parse_config_coercion():
    raw = hn.parse_config(
        """
        # comment
        experiment = analytic
        seed = 42
        epsilons = 1, 2.5, 3   # trailing comment
        protocols = grr, ss
        survey_all_attributes = true
        out = res.csv
        """
    )
    assert raw["experiment"] == "analytic"
    assert raw["seed"] == 42
    assert raw["epsilons"] == [1, 2.5, 3]
    assert raw["protocols"] == ["grr", "ss"]
    assert raw["survey_all_attributes"] is True
    assert raw["out"] == "res.csv"


def test_parse_config_bad_line():
    with pytest.raises(ConfigError):
        hn.parse_config("just words\n")


def test_parse_config_repeated_key():
    # the last value used to win silently: this ran only epsilon = 2
    with pytest.raises(ConfigError, match="line 3.*repeats line 1"):
        hn.parse_config("epsilons = 1\nseed = 1\nepsilons = 2\n")


# scalars of every type the parser yields, including names valid for some key
_NAMES = sorted({v for meta in hn.KEYS.values() if isinstance(meta["domain"], tuple)
                 for v in meta["domain"]} | set(PROTOCOLS))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2, 12),
                     st.floats(), st.floats(0, 1), st.text(max_size=6), st.sampled_from(_NAMES))
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3))


@settings(max_examples=400, deadline=None)
@given(kind=st.one_of(st.sampled_from(hn.KINDS), _SCALARS),
       keys=st.dictionaries(st.sampled_from(sorted(hn.KEYS)), _VALUES, max_size=6))
def test_build_config_raises_only_config_error(kind, keys):
    try:
        cfg = hn.build_config({"experiment": kind, "seed": 1, **keys})
    except ConfigError:
        return
    assert isinstance(cfg, hn.ExperimentConfig)


def test_readme_key_table_matches_config_fields():
    # the key table's rows: | `key` | type | default | domain | read by |, up to
    # the first line after its header that is not a table row
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = text.splitlines()
    start = lines.index("| key | type | default | domain | read by |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("| `"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = cells
    assert set(rows) == set(hn.KEYS)
    for key, meta in hn.KEYS.items():
        typ = meta["type"].__name__ + (" list" if meta["many"] else "")
        kinds = hn.KINDS if rows[key][4] == "all" else tuple(rows[key][4].split(", "))
        assert (rows[key][1], set(kinds)) == (typ, set(meta["kinds"])), key


def test_build_config_unknown_key():
    with pytest.raises(ConfigError):
        hn.build_config({"experiment": "analytic", "seed": 1, "epsilons": [1],
                         "frobnicate": 2})


def test_build_config_requires_seed():
    with pytest.raises(ConfigError):
        hn.build_config({"experiment": "analytic", "epsilons": [1]})


def test_build_config_overrides_win():
    cfg = hn.build_config(
        {"experiment": "analytic", "seed": 1, "epsilons": [1], "runs": 3},
        overrides={"seed": 9, "runs": None},
    )
    assert cfg.seed == 9 and cfg.runs == 3


def test_single_scalar_promoted_to_list():
    cfg = hn.build_config({"experiment": "analytic", "seed": 1, "epsilons": 2,
                           "protocols": "grr"})
    assert cfg.epsilons == [2] and cfg.protocols == ["grr"]


def _analytic_cfg(**kw):
    base = {"experiment": "analytic", "seed": 5, "epsilons": [1, 2],
            "protocols": ["grr", "oue"], "ks": [5, 3], "runs": 2}
    base.update(kw)
    return hn.build_config(base)


def test_analytic_grid_completeness():
    cfg = _analytic_cfg()
    rows = hn.run_experiment(cfg)
    # 2 protocols x 2 eps x 2 modes x runs 2
    assert len(rows) == 16
    for proto in ("grr", "oue"):
        for eps in (1.0, 2.0):
            for metric in ("acc_uniform", "acc_non_uniform"):
                sel = [r for r in rows if r.protocol == proto and r.epsilon == eps
                       and r.metric == metric]
                assert len(sel) == cfg.runs
                assert len({r.value for r in sel}) == 1  # analytic: same value per run


def test_thread_count_cannot_change_results(tmp_path):
    cfg1 = _analytic_cfg(threads=1)
    cfg8 = _analytic_cfg(threads=8)
    p1 = hn.export_results(hn.run_experiment(cfg1), tmp_path / "a1.csv")
    p8 = hn.export_results(hn.run_experiment(cfg8), tmp_path / "a8.csv")
    assert p1.read_bytes() == p8.read_bytes()


def test_attack_oracle_kind_rows():
    cfg = hn.build_config({"experiment": "attack_oracle", "seed": 7,
                           "epsilons": [1], "protocols": ["grr"], "ks": [4],
                           "n": 20000, "runs": 1})
    rows = hn.run_experiment(cfg)
    emp = [r for r in rows if r.metric.startswith("acc_empirical")]
    ana = [r for r in rows if r.metric.startswith("acc_analytic")]
    assert len(emp) == 1 and len(ana) == 1
    assert emp[0].stderr is not None and emp[0].stderr > 0
    assert abs(emp[0].value - ana[0].value) < 3 * 100 * math.sqrt(
        ana[0].value / 100 * (1 - ana[0].value / 100) / 20000
    )


def test_export_csv_round_trip(tmp_path):
    rows = hn.run_experiment(_analytic_cfg(runs=1))
    path = hn.export_results(rows, tmp_path / "out.csv", "csv")
    text = path.read_text()
    header, *lines = text.strip().split("\n")
    assert header == ",".join(hn.EXPORT_COLUMNS)
    # bit-for-text: re-render parsed values and compare
    for row, line in zip(rows, lines):
        rendered = ",".join(hn._fmt(getattr(row, c)) for c in hn.EXPORT_COLUMNS)
        assert rendered == line


def test_export_jsonl(tmp_path):
    import json

    rows = hn.run_experiment(_analytic_cfg(runs=1))
    path = hn.export_results(rows, tmp_path / "out.jsonl", "jsonl")
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(rows)
    rec = json.loads(lines[0])
    assert list(rec.keys()) == list(hn.EXPORT_COLUMNS)
    assert rec["beta"] is None


def test_export_empty_rows(tmp_path):
    path = hn.export_results([], tmp_path / "empty.csv", "csv")
    assert path.read_text() == ",".join(hn.EXPORT_COLUMNS) + "\n"
    path = hn.export_results([], tmp_path / "empty.jsonl", "jsonl")
    assert path.read_text() == ""


def test_float_formatting_ten_significant_digits():
    assert hn._fmt(0.12345678901234) == "0.123456789"
    assert hn._fmt(1.0) == "1"
    assert hn._fmt(None) == ""


def test_mse_rs_fd_rows_do_not_depend_on_the_paired_solution():
    # both solutions of a (variant, eps) pair share one seed, so the rs_fd rows
    # of a paired grid are those of rs_fd alone; with the engine identity
    # (test_rsrfd_uniform_prior_degenerates_to_rsfd) this makes rs_fd the
    # uniform-prior baseline of the rs_rfd rows beside it
    raw = {"experiment": "mse", "seed": 11, "dataset": "fixture:adult_style_100",
           "epsilons": [math.log(4)], "variants": ["grr", "oue_r"],
           "prior_mode": "laplace", "runs": 2}
    paired = hn.run_experiment(hn.build_config({**raw, "solutions": ["rs_fd", "rs_rfd"]}))
    alone = hn.run_experiment(hn.build_config({**raw, "solutions": ["rs_fd"]}))
    assert [r for r in paired if r.solution == "rs_fd"] == alone
    assert len(alone) == 4


def test_reident_kind_small_and_deterministic():
    import time

    raw = {
        "experiment": "reident", "seed": 13, "dataset": "fixture:adult_style_5000",
        "subsample": 2000, "protocols": ["grr"], "epsilons": [5],
        "attack_models": ["fk"], "top_k": [1, 5], "surveys": 3, "runs": 2,
    }
    t0 = time.monotonic()
    rows1 = hn.run_experiment(hn.build_config(dict(raw)))
    assert time.monotonic() - t0 < 300  # desk-scale budget
    rows2 = hn.run_experiment(hn.build_config(dict(raw)))
    assert rows1 == rows2
    # top_k x cumulative surveys {2,3} x runs
    assert len(rows1) == 2 * 2 * 2


def test_attr_infer_kind_rows():
    cfg = hn.build_config({
        "experiment": "attr_infer", "seed": 17, "dataset": "synth:zipf", "synth_zipf_a": 0,
        "synth_n": 4000, "synth_ks": [4, 3, 5], "epsilons": [1.0],
        "variants": ["grr"], "attack": ["nk", "pk"], "solutions": ["rs_fd"],
        "runs": 1,
    })
    rows = hn.run_experiment(cfg)
    assert {r.metric for r in rows} == {"aif_acc_nk", "aif_acc_pk"}
    for r in rows:
        assert 0 <= r.value <= 100


def test_attr_infer_rs_rfd_solution():
    cfg = hn.build_config({
        "experiment": "attr_infer", "seed": 18, "dataset": "fixture:adult_style_5000",
        "subsample": 3000, "epsilons": [4.0], "variants": ["grr"],
        "attack": ["nk"], "solutions": ["rs_rfd"], "prior_mode": "exact", "runs": 1,
    })
    rows = hn.run_experiment(cfg)
    assert len(rows) == 1
    assert rows[0].solution == "rs_rfd"
    assert 0 <= rows[0].value <= 100


def test_s_mult_refused_when_the_synthetic_reports_exceed_physical_memory(monkeypatch):
    # s_mult = 1e14 on 100 users exited 3 ("Unable to allocate 88.8 PiB") after
    # the real collection had been sanitized; the benchmark's fakedata_infer
    # grid passes.  Its widest synthetic row is an oue_r row of Σk = 46 bits,
    # a grr row d = 5 uint8 values
    cfg = hn.build_config({
        "experiment": "attr_infer", "seed": 1, "dataset": "synth:zipf", "synth_n": 100_000,
        "synth_zipf_a": 0.6, "epsilons": [1, 4], "variants": ["grr", "oue_r"]})
    ds = hn.resolve_dataset(cfg)
    hn._check_counts(cfg, ds)
    sysconf = {}
    monkeypatch.setattr(hn.os, "sysconf", sysconf.__getitem__)
    for variants, row in ((["grr", "oue_r"], 46), (["grr"], 5)):
        cfg.variants = variants
        sysconf.update(SC_PAGE_SIZE=row, SC_PHYS_PAGES=100_000)  # memory for s = n rows
        hn._check_counts(cfg, ds)
        sysconf["SC_PHYS_PAGES"] -= 1
        with pytest.raises(ConfigError, match=f"100000 synthetic reports of {row} bytes"):
            hn._check_counts(cfg, ds)


def test_attack_rows_carry_metadata():
    # runs = 2 per point: the attacks return plain accuracies, and the harness
    # writes the run index, the grid axes and the master seed into each row
    keys = {"seed": 25, "dataset": "synth:zipf", "synth_zipf_a": 0, "synth_n": 300,
            "synth_ks": [8, 9, 10], "epsilons": [2.0], "runs": 2}
    rows = hn.run_experiment(hn.build_config({
        "experiment": "attr_infer", "variants": ["oue_r"], "solutions": ["rs_fd"],
        "attack": ["pk"], "npk_frac": 0.2, **keys}))
    assert [r.run for r in rows] == [0, 1]
    for r in rows:
        assert (r.experiment, r.protocol, r.solution) == ("attr_infer", "oue_r", "rs_fd")
        assert (r.epsilon, r.beta, r.metric, r.seed) == (2.0, None, "aif_acc_pk", 25)
        assert r.flags.split(";")[0] == "classifier=naive_bayes"
    rows = hn.run_experiment(hn.build_config({
        "experiment": "reident", "solution": "rs_fd", "protocols": ["grr"], "betas": [0.95],
        "attack_models": ["fk"], "top_k": [1, 5], "surveys": 3, **keys}))
    metrics = [f"rid_acc_top{k}_sv{s}" for s in (2, 3) for k in (1, 5)]
    assert [(r.epsilon, r.beta, r.run, r.metric) for r in rows] == (
        [(2.0, None, run, m) for run in (0, 1) for m in metrics]
        + [(None, 0.95, run, m) for run in (0, 1) for m in metrics])
    for r in rows:
        assert (r.experiment, r.protocol, r.solution, r.seed) == ("reident", "grr", "rs_fd", 25)
        assert ("alpha_clamped" in r.flags) == (r.beta == 0.95)


def test_reident_beta_row_leads_with_the_budget_flags():
    # beta = 0.95 at n = 300 clamps alpha at 0, so every attribute gets the
    # epsilon floor; s_mult = 1/300 trains the attacker on one synthetic row
    rows = hn.run_experiment(hn.build_config({
        "experiment": "reident", "seed": 26, "dataset": "synth:zipf", "synth_zipf_a": 0,
        "synth_n": 300, "synth_ks": [8, 9, 10], "solution": "rs_fd", "protocols": ["grr"],
        "betas": [0.95], "s_mult": 1 / 300, "top_k": [1], "surveys": 2}))
    assert [(r.beta, r.flags) for r in rows] == [
        (0.95, "alpha_clamped;epsilon_floor;single_class")]


def test_reident_rows_carry_the_flags_raised_up_to_their_survey():
    # without replacement over 3 attributes the pool runs dry at survey 4
    rows = hn.run_experiment(hn.build_config({
        "experiment": "reident", "seed": 1, "dataset": "synth:zipf", "synth_zipf_a": 0,
        "synth_n": 300, "synth_ks": [8, 9, 10], "protocols": ["grr"], "epsilons": [2.0],
        "attack_models": ["fk"], "top_k": [1], "surveys": 5,
        "survey_all_attributes": True, "runs": 2}))
    assert [(r.run, r.metric, r.flags) for r in rows] == [
        (run, f"rid_acc_top1_sv{s}", "smp_pool_reused" if s >= 4 else "")
        for run in (0, 1) for s in (2, 3, 4, 5)]


def test_beta_grid_reident():
    cfg = hn.build_config({
        "experiment": "reident", "seed": 19, "dataset": "fixture:adult_style_5000",
        "subsample": 300, "protocols": ["grr"], "betas": [0.5],
        "attack_models": ["fk"], "top_k": [1], "surveys": 2, "runs": 1,
    })
    rows = hn.run_experiment(cfg)
    assert rows and rows[0].beta == 0.5 and rows[0].epsilon is None


def test_prior_fallback_flag_follows_laplace_prior():
    # prior_epsilon = 0.01 on 100 rows makes the Laplace noise dominate, so some
    # attribute's prior clips to all-zero and falls back to uniform for some seeds
    seen = set()
    for seed in range(8):
        keys = {"seed": seed, "dataset": "fixture:adult_style_100", "epsilons": [1.0],
                "prior_epsilon": 0.01}
        cfg = hn.build_config({"experiment": "mse", "solutions": ["rs_fd", "rs_rfd"], **keys})
        ds = hn.resolve_dataset(cfg)
        fallback = laplace_prior(true_frequencies(ds), cfg.prior_epsilon, ds.n,
                                 stream(seed, 7003))[1]
        fell_back = any(fallback)
        seen.add(fell_back)
        rows = hn.run_experiment(cfg) + hn.run_experiment(hn.build_config(
            {"experiment": "reident", "solution": "rs_rfd", "surveys": 2, "top_k": [1], **keys}))
        for r in rows:
            flags = r.flags.split(";")
            assert ("prior_fallback" in flags) == (fell_back and r.solution == "rs_rfd"), seed
    assert seen == {False, True}


def test_fixture_dataset_reads_columns_and_id_column():
    # a fixture spec ignored both keys and loaded every attribute
    keys = {"experiment": "mse", "seed": 1, "dataset": "fixture:adult_style_100",
            "epsilons": [1.0]}
    ds = hn.resolve_dataset(hn.build_config({**keys, "columns": ["age", "sex"]}))
    assert ds.d == 2 and ds.names == ("age", "sex")
    assert hn.resolve_dataset(hn.build_config({**keys, "id_column": ""})).d == 11


def test_validate_rejects_bad_values():
    with pytest.raises(ConfigError):
        hn.build_config({"experiment": "waffles", "seed": 1})
    with pytest.raises(ConfigError):
        hn.build_config({"experiment": "analytic", "seed": 1, "epsilons": []})
    with pytest.raises(ConfigError):
        hn.build_config({"experiment": "mse", "seed": 1, "epsilons": [1],
                         "variants": ["glh"]})
    with pytest.raises(ConfigError):
        hn.build_config({"experiment": "analytic", "seed": 1, "epsilons": [1],
                         "runs": 0})


@pytest.mark.parametrize("key", sorted(k for k, m in hn.KEYS.items() if m["many"]))
def test_empty_list_only_where_the_default_is_empty(key):
    kind = next(k for k in ("reident", "attr_infer", "analytic")
                if k in hn.KEYS[key]["kinds"])
    raw = {"experiment": kind, "seed": 1, "dataset": "fixture:adult_style_100",
           "epsilons": [1.0], key: []}
    if kind == "analytic":
        del raw["dataset"]
    if key == "epsilons":
        raw["betas"] = [0.5]
    if getattr(hn.ExperimentConfig(), key):
        with pytest.raises(ConfigError, match=f"{key} must not be empty"):
            hn.build_config(raw)
    else:
        assert getattr(hn.build_config(raw), key) == []
