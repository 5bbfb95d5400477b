"""Experiment orchestration: config parsing, grid execution, result export.

Experiments are declared in a flat key/value config file (``key = value``,
comma-separated lists, ``#`` comments).  Each grid point runs in a worker
with rng streams derived from (master seed, grid index, run index), so the
thread count can never change a result; a single collector sorts rows into
a stable order before writing.

Output rows share one schema: experiment, protocol, solution, epsilon,
beta, metric, value, stderr, run, seed, flags.  Floats are printed with 10
significant digits; CSV and JSONL carry identical values.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .attacks import (
    AttackResult,
    SurveysConfig,
    analytic_acc,
    empirical_attack_acc,
    multi_collection_acc,
    run_attr_infer_experiment,
    run_reident_experiment,
    variant_label,
)
from .datasets import (
    Dataset,
    laplace_prior,
    load_dataset,
    load_fixture,
    mse_avg,
    true_frequencies,
    uniform_dataset,
    zipf_dataset,
)
from .errors import ConfigError, ParameterError
from .multidim import (
    FAKE_DATA_VARIANTS,
    SAMPLING_MODES,
    CollectionConfig,
    amplified_epsilon,
    check_collection,
    rs_estimate,
    rs_sanitize_batch,
    uniform_priors,
)
from .oracles import PROTOCOLS, protocol_params
from .rng import stream

KINDS = ("analytic", "attack_oracle", "reident", "attr_infer", "mse")

THREADS_ENV_VAR = "LDPSIM_THREADS"

EXPORT_COLUMNS = (
    "experiment", "protocol", "solution", "epsilon", "beta",
    "metric", "value", "stderr", "run", "seed", "flags",
)

# the type of every value of a typed key (scalars and lists), checked before
# any comparison; a float key also takes an int
_KEY_TYPES = {
    **dict.fromkeys(("seed", "runs", "threads", "n", "subsample", "synth_n", "surveys",
                     "ks", "synth_ks", "top_k"), int),
    **dict.fromkeys(("epsilons", "betas", "survey_min_frac", "synth_zipf_a", "s_mult",
                     "nk_s_mult", "npk_frac", "prior_epsilon"), float),
    "survey_all_attributes": bool,
}
_ACCEPTED = {int: (int, np.integer), float: (int, float, np.integer, np.floating),
             bool: (bool,)}

_VARIANT_TAGS = {
    "grr": ("grr", None),
    "sue_z": ("ue_z", "sue"),
    "oue_z": ("ue_z", "oue"),
    "sue_r": ("ue_r", "sue"),
    "oue_r": ("ue_r", "oue"),
}


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    protocol: str | None
    solution: str | None
    epsilon: float | None
    beta: float | None
    metric: str
    value: float
    stderr: float | None
    run: int
    seed: int
    flags: str = ""


@dataclass
class ExperimentConfig:
    experiment: str = ""
    seed: int | None = None
    runs: int = 1
    threads: int = 1
    out: str = "results.csv"
    format: str = "csv"
    # dataset
    dataset: str = ""
    columns: list = field(default_factory=list)
    id_column: str = "id"
    subsample: int = 0
    synth_n: int = 10000
    synth_ks: list = field(default_factory=lambda: [16, 12, 8, 6, 4])
    synth_zipf_a: float = 1.2
    # grids
    protocols: list = field(default_factory=lambda: ["grr"])
    epsilons: list = field(default_factory=list)
    betas: list = field(default_factory=list)
    ks: list = field(default_factory=lambda: [74, 7, 16])
    modes: list = field(default_factory=lambda: ["uniform", "non_uniform"])
    n: int = 100000
    # reident
    solution: str = "smp"
    surveys: int = 5
    survey_min_frac: float = 0.5
    survey_all_attributes: bool = False
    sampling_mode: str = "without_replacement"
    attack_models: list = field(default_factory=lambda: ["fk"])
    top_k: list = field(default_factory=lambda: [1, 5, 10])
    nk_s_mult: float = 1.0
    # attr-infer / mse
    variants: list = field(default_factory=lambda: ["grr"])
    attack: list = field(default_factory=lambda: ["nk", "pk", "hm"])
    s_mult: float = 1.0
    npk_frac: float = 0.1
    solutions: list = field(default_factory=lambda: ["rs_fd", "rs_rfd"])
    prior_mode: str = "laplace"
    prior_epsilon: float = 0.1

    def validate(self) -> "ExperimentConfig":
        if self.experiment not in KINDS:
            raise ConfigError(f"experiment must be one of {KINDS}, got {self.experiment!r}")
        if self.seed is None:
            raise ConfigError("a seed is mandatory (no wall-clock seeding)")
        for key, typ in _KEY_TYPES.items():
            values = getattr(self, key)
            for v in values if isinstance(values, list) else [values]:
                if isinstance(v, bool) != (typ is bool) or not isinstance(v, _ACCEPTED[typ]):
                    raise ConfigError(f"{key} must be of type {typ.__name__}, got {v!r}")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.format not in ("csv", "jsonl"):
            raise ConfigError(f"format must be csv or jsonl, got {self.format!r}")
        if self.experiment != "reident" and not self.epsilons:
            raise ConfigError("epsilons grid must be non-empty")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.experiment in ("analytic", "attack_oracle") and any(k < 2 for k in self.ks):
            raise ConfigError(f"every ks entry must be >= 2, got {self.ks}")
        for v in self.variants:
            if v not in _VARIANT_TAGS:
                raise ConfigError(f"unknown variant {v!r}; use one of {sorted(_VARIANT_TAGS)}")
        if self.experiment == "reident":
            if not (self.epsilons or self.betas):
                raise ConfigError("reident needs an epsilons or betas grid")
            if self.solution not in ("smp", *FAKE_DATA_VARIANTS):
                raise ConfigError(f"unknown solution {self.solution!r}; use one of "
                                  f"{('smp', *FAKE_DATA_VARIANTS)}")
            if self.surveys < 2:
                raise ConfigError("reident needs surveys >= 2 (RID is scored from survey 2 on)")
            try:
                SurveysConfig(self.surveys, self.survey_min_frac, self.survey_all_attributes)
            except ParameterError as exc:
                raise ConfigError(str(exc)) from exc
            if not all(0 < beta < 1 for beta in self.betas):
                raise ConfigError(f"every beta must lie in (0, 1), got {self.betas}")
            if any(k < 1 for k in self.top_k):
                raise ConfigError(f"every top_k entry must be >= 1, got {self.top_k}")
            pairs = [(p, self.solution) for p in self.protocols]
        elif self.experiment in ("attr_infer", "mse"):
            pairs = [(v, s) for v in self.variants for s in self.solutions]
        else:
            pairs = [(p, "smp") for p in self.protocols]
        for tag, solution in pairs:
            _check_pair(tag, solution)
        _check_epsilons(self)
        if self.prior_mode not in ("laplace", "exact", "uniform"):
            raise ConfigError(f"unknown prior_mode {self.prior_mode!r}")
        if self.uses_rfd and self.prior_mode == "laplace" and not 0 < self.prior_epsilon < math.inf:
            raise ConfigError(f"prior_epsilon must be finite and > 0, got {self.prior_epsilon!r}")
        if self.sampling_mode not in SAMPLING_MODES:
            raise ConfigError(f"unknown sampling_mode {self.sampling_mode!r}")
        return self

    @property
    def uses_rfd(self) -> bool:
        """Whether some collection of this experiment draws fakes from rs_rfd priors."""
        if self.experiment == "reident":
            return self.solution == "rs_rfd"
        return self.experiment in ("attr_infer", "mse") and "rs_rfd" in self.solutions


def _check_epsilons(cfg: ExperimentConfig, d: int | None = None) -> None:
    """Every epsilon is finite, > 0 and calibrates every protocol the grid runs.

    Fake-data collections randomize at the amplified epsilon; pass the
    dataset's attribute count ``d`` to check that too.
    """
    fake = cfg.experiment in ("attr_infer", "mse") or (
        cfg.experiment == "reident" and cfg.solution != "smp")
    tags = cfg.variants if cfg.experiment in ("attr_infer", "mse") else cfg.protocols
    protocols = {_VARIANT_TAGS[t][1] or "grr" for t in tags} if fake else set(tags)
    for eps in cfg.epsilons:
        if not 0 < eps < math.inf:
            raise ConfigError(f"every epsilon must be finite and > 0, got {eps!r}")
        try:
            eps_run = amplified_epsilon(eps, d) if fake and d else eps
            for proto in sorted(protocols):
                protocol_params(proto, eps_run, 2)
        except (ParameterError, OverflowError) as exc:
            raise ConfigError(f"epsilon {eps!r}: {exc}") from exc


def _check_pair(tag: str, solution: str) -> None:
    """Reject a protocol (smp) or variant tag (fake data) the solution does not run."""
    if solution == "smp":
        if tag not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {tag!r}; use one of {PROTOCOLS}")
        return
    if tag not in _VARIANT_TAGS:
        raise ConfigError(f"unknown variant {tag!r}; use one of {sorted(_VARIANT_TAGS)}")
    try:
        check_collection(solution, *_VARIANT_TAGS[tag])
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def _coerce(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config(text: str) -> dict:
    """Parse the flat key/value config format into a raw dict."""
    out: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if "," in value:
            out[key] = [_coerce(v) for v in value.split(",") if v.strip()]
        else:
            out[key] = _coerce(value)
    return out


def build_config(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Raw dict (+ CLI overrides, which win) -> validated config."""
    merged = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(merged) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = ExperimentConfig()
    list_fields = {f.name for f in fields(ExperimentConfig)
                   if isinstance(getattr(cfg, f.name), list)}
    for key, value in merged.items():
        if key in list_fields and not isinstance(value, list):
            value = [value]
        setattr(cfg, key, value)
    return cfg.validate()


def resolve_dataset(cfg: ExperimentConfig) -> Dataset:
    """Materialize the dataset named by the config."""
    spec = cfg.dataset
    if not spec:
        raise ConfigError("this experiment needs a dataset")
    if spec.startswith("fixture:"):
        ds = load_fixture(spec.split(":", 1)[1])
    elif spec.startswith("synth:"):
        kind = spec.split(":", 1)[1]
        rng = stream(cfg.seed, 7001)
        if kind == "zipf":
            ds = zipf_dataset(cfg.synth_n, cfg.synth_ks, cfg.synth_zipf_a, rng)
        elif kind == "uniform":
            ds = uniform_dataset(cfg.synth_n, cfg.synth_ks, rng)
        else:
            raise ConfigError(f"unknown synthetic dataset {kind!r}")
    else:
        ds = load_dataset(spec, cfg.columns or None,
                          cfg.id_column if cfg.id_column else None)
    if cfg.subsample:
        ds = ds.subsample(cfg.subsample, stream(cfg.seed, 7002))
    return ds


def _point_seed(master: int, grid_idx: int) -> int:
    """Derived integer seed for one grid point (independent of thread order)."""
    return int(np.random.SeedSequence(master, spawn_key=(9090, grid_idx)).generate_state(1)[0])


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return f"{x:.10g}"
    return str(x)


def _from_attack_result(cfg: ExperimentConfig, r: AttackResult, metric: str,
                        stderr: float | None = None) -> ResultRow:
    return ResultRow(
        experiment=cfg.experiment, protocol=r.protocol, solution=r.solution,
        epsilon=r.epsilon, beta=r.beta, metric=metric, value=r.value,
        stderr=stderr, run=r.run, seed=cfg.seed, flags=r.flags,
    )


# ---------------------------------------------------------------------------
# Experiment kinds
# ---------------------------------------------------------------------------

def _run_analytic_point(cfg: ExperimentConfig, grid_idx: int, proto: str,
                        eps: float, run: int) -> list[ResultRow]:
    rows = []
    for mode in cfg.modes:
        value = multi_collection_acc(proto, eps, cfg.ks, mode)
        rows.append(ResultRow(cfg.experiment, proto, "smp", eps, None,
                              f"acc_{mode}", value, None, run, cfg.seed))
    return rows


def _run_attack_oracle_point(cfg: ExperimentConfig, grid_idx: int, proto: str,
                             eps: float, k: int, run: int) -> list[ResultRow]:
    rng = stream(_point_seed(cfg.seed, grid_idx), run)
    emp = empirical_attack_acc(proto, eps, k, cfg.n, rng)
    ana = analytic_acc(proto, eps, k)
    se = 100.0 * math.sqrt(max(ana / 100 * (1 - ana / 100), 0.0) / cfg.n)
    flag = f"k={k}"
    return [
        ResultRow(cfg.experiment, proto, None, eps, None, f"acc_empirical_k{k}",
                  emp, se, run, cfg.seed, flag),
        ResultRow(cfg.experiment, proto, None, eps, None, f"acc_analytic_k{k}",
                  ana, None, run, cfg.seed, flag),
    ]


def _rfd_priors(cfg: ExperimentConfig, ds: Dataset) -> list[np.ndarray] | None:
    """The rs_rfd priors (laplace noise from stream 7003); None when no collection uses them."""
    if not cfg.uses_rfd:
        return None
    if cfg.prior_mode == "uniform":
        return uniform_priors(ds.multidomain)
    freqs = true_frequencies(ds)
    if cfg.prior_mode == "exact":
        return freqs
    return laplace_prior(freqs, cfg.prior_epsilon, ds.n, stream(cfg.seed, 7003))[0]


def _run_reident_point(cfg: ExperimentConfig, ds: Dataset, grid_idx: int,
                       proto: str, privacy: tuple, model: str, run: int,
                       priors) -> list[ResultRow]:
    variant, flavor = _VARIANT_TAGS.get(proto, ("grr", None))  # smp: unused
    results = run_reident_experiment(
        ds,
        protocol=proto if cfg.solution == "smp" else "grr",
        solution=cfg.solution,
        privacy=privacy,
        surveys=SurveysConfig(cfg.surveys, cfg.survey_min_frac, cfg.survey_all_attributes),
        attack_mode=model,
        top_ks=cfg.top_k,
        sampling_mode=cfg.sampling_mode,
        runs=1,
        seed=_point_seed(cfg.seed, grid_idx) + run,
        variant=variant,
        flavor=flavor,
        rfd_priors=priors,
        nk_s_mult=cfg.nk_s_mult,
    )
    rows = []
    for r in results:
        r = replace(r, run=run)
        rows.append(_from_attack_result(
            cfg, r, metric=f"rid_acc_top{r.top_k}_sv{r.surveys}"))
    return rows


def _run_attr_infer_point(cfg: ExperimentConfig, ds: Dataset, grid_idx: int,
                          vtag: str, eps: float, run: int, solution: str,
                          priors) -> list[ResultRow]:
    collection = CollectionConfig(ds.multidomain, solution, *_VARIANT_TAGS[vtag], eps, priors)
    results = run_attr_infer_experiment(
        ds.rows, collection, attack_models=cfg.attack, s_mult=cfg.s_mult,
        npk_frac=cfg.npk_frac, run=run, seed=_point_seed(cfg.seed, grid_idx),
    )
    return [
        _from_attack_result(cfg, r, metric=f"aif_acc_{r.model}")
        for r in results
    ]


def _run_mse_point(cfg: ExperimentConfig, ds: Dataset, pair_idx: int,
                   solution: str, vtag: str, eps: float, run: int,
                   priors) -> list[ResultRow]:
    variant, flavor = _VARIANT_TAGS[vtag]
    # seed shared by both solutions of a (variant, eps, run) pair so the
    # rs_fd / rs_rfd comparison is paired on identical streams
    rng = stream(_point_seed(cfg.seed, pair_idx), run)
    truth = true_frequencies(ds)
    collection = CollectionConfig(ds.multidomain, solution, variant, flavor, eps, priors)
    batch, _ = rs_sanitize_batch(ds.rows, collection, rng)
    value = mse_avg(truth, rs_estimate(batch))
    return [ResultRow(cfg.experiment, variant_label(variant, flavor), solution,
                      eps, None, "mse_avg", value, None, run, cfg.seed,
                      f"prior_mode={cfg.prior_mode}")]


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Execute every grid point x run of the configured experiment."""
    cfg.validate()
    tasks = []  # (order key, callable)

    if cfg.experiment == "analytic":
        grid = [(p, e) for p in cfg.protocols for e in cfg.epsilons]
        for gi, (p, e) in enumerate(grid):
            for run in range(cfg.runs):
                tasks.append(((gi, run), lambda p=p, e=e, gi=gi, run=run:
                              _run_analytic_point(cfg, gi, p, float(e), run)))

    elif cfg.experiment == "attack_oracle":
        grid = [(p, e, k) for p in cfg.protocols for e in cfg.epsilons for k in cfg.ks]
        for gi, (p, e, k) in enumerate(grid):
            for run in range(cfg.runs):
                tasks.append(((gi, run), lambda p=p, e=e, k=k, gi=gi, run=run:
                              _run_attack_oracle_point(cfg, gi, p, float(e), int(k), run)))

    elif cfg.experiment == "reident":
        ds = resolve_dataset(cfg)
        _check_epsilons(cfg, ds.d)
        priors = _rfd_priors(cfg, ds)
        privacy_grid = [("epsilon", float(e)) for e in cfg.epsilons]
        privacy_grid += [("beta", float(b)) for b in cfg.betas]
        grid = [(p, pv, m) for p in cfg.protocols for pv in privacy_grid
                for m in cfg.attack_models]
        for gi, (p, pv, m) in enumerate(grid):
            for run in range(cfg.runs):
                tasks.append(((gi, run), lambda p=p, pv=pv, m=m, gi=gi, run=run:
                              _run_reident_point(cfg, ds, gi, p, pv, m, run, priors)))

    elif cfg.experiment == "attr_infer":
        ds = resolve_dataset(cfg)
        _check_epsilons(cfg, ds.d)
        grid = [(v, e, s) for v in cfg.variants for e in cfg.epsilons
                for s in cfg.solutions]
        priors = _rfd_priors(cfg, ds)
        for gi, (v, e, s) in enumerate(grid):
            for run in range(cfg.runs):
                tasks.append(((gi, run), lambda v=v, e=e, s=s, gi=gi, run=run:
                              _run_attr_infer_point(cfg, ds, gi, v, float(e), run, s, priors)))

    elif cfg.experiment == "mse":
        ds = resolve_dataset(cfg)
        _check_epsilons(cfg, ds.d)
        priors = _rfd_priors(cfg, ds)
        pairs = [(v, e) for v in cfg.variants for e in cfg.epsilons]
        grid = [(s, v, e) for s in cfg.solutions for (v, e) in pairs]
        for gi, (s, v, e) in enumerate(grid):
            pair_idx = pairs.index((v, e))
            for run in range(cfg.runs):
                tasks.append(((gi, run), lambda s=s, v=v, e=e, pi=pair_idx, run=run:
                              _run_mse_point(cfg, ds, pi, s, v, float(e), run, priors)))

    if cfg.threads == 1:
        collected = [(key, fn()) for key, fn in tasks]
    else:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            futures = [(key, pool.submit(fn)) for key, fn in tasks]
            collected = [(key, fut.result()) for key, fut in futures]
    collected.sort(key=lambda item: item[0])
    rows: list[ResultRow] = []
    for _, batch in collected:
        rows.extend(batch)
    return rows


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def export_results(rows: Sequence[ResultRow], path: str | Path, format: str = "csv") -> Path:
    """Write rows in the stable column order; empty input writes header only."""
    path = Path(path)
    if format == "csv":
        lines = [",".join(EXPORT_COLUMNS)]
        for r in rows:
            lines.append(",".join(_fmt(getattr(r, c)) for c in EXPORT_COLUMNS))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif format == "jsonl":
        lines = []
        for r in rows:
            parts = []
            for c in EXPORT_COLUMNS:
                v = getattr(r, c)
                if v is None:
                    parts.append(f'"{c}": null')
                elif isinstance(v, float):
                    parts.append(f'"{c}": {_fmt(v)}')
                elif isinstance(v, int):
                    parts.append(f'"{c}": {v}')
                else:
                    parts.append(f'"{c}": {json.dumps(v)}')
            lines.append("{" + ", ".join(parts) + "}")
        path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    else:
        raise ConfigError(f"unknown export format {format!r}")
    return path


def resolve_threads(cli_threads: int | None, cfg_threads: int | None) -> int:
    """Thread-count precedence: CLI flag > environment > config > 1."""
    if cli_threads is not None:
        return cli_threads
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}")
    if cfg_threads is not None:
        return cfg_threads
    return 1
