"""Experiment orchestration: config parsing, grid execution, result export.

Experiments are declared in a flat key/value config file (``key = value``,
comma-separated lists, ``#`` comments).  The fields of ``ExperimentConfig``
are the key table: each one carries its value type, list-ness, domain and
the experiment kinds that read it, and that table alone drives list
promotion, type and domain checks and the rejection of keys a kind ignores.

Each grid point runs in a worker with rng streams derived from (master
seed, grid index, run index), so the thread count can never change a
result; results are collected in grid order before writing.

The attacks take resolved epsilons and return plain accuracies and flag
lists; each kind's point function alone maps a beta budget to epsilons,
joins the flags and builds ``ResultRow``s, whose fields are the one output
schema: experiment, protocol, solution, epsilon, beta, metric, value,
stderr, run, seed, flags.  Floats are printed with 10 significant digits;
CSV and JSONL carry identical values.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .attacks import (
    ATTACK_MODELS,
    SurveysConfig,
    analytic_acc,
    compromised_count,
    empirical_attack_acc,
    multi_collection_acc,
    run_attr_infer_experiment,
    run_reident_experiment,
    synthetic_count,
)
from .budget import alpha_from_bayes_error, beta_epsilons
from .datasets import (
    Dataset,
    dataset_file,
    laplace_prior,
    load_dataset,
    mse_avg,
    true_frequencies,
    uniform_dataset,
    zipf_dataset,
)
from .errors import ConfigError, DomainError, LdpSimError, ParameterError
from .multidim import (
    FAKE_DATA_VARIANTS,
    SAMPLING_MODES,
    CollectionConfig,
    amplified_epsilon,
    check_collection,
    rs_estimate,
    rs_sanitize_batch,
    uniform_priors,
    variant_oracle,
)
from .oracles import protocol_params
from .rng import stream

KINDS = ("analytic", "attack_oracle", "reident", "attr_infer", "mse")
_DATA = ("reident", "attr_infer", "mse")  # the kinds that load a dataset
_FAKE = ("attr_infer", "mse")             # the kinds whose grid runs fake-data variants

# the Python types a value of each key type may have; a float key also takes an int
_ACCEPTED = {int: (int, np.integer), float: (int, float, np.integer, np.floating),
             bool: (bool,), str: (str,)}


@dataclass(frozen=True)
class Interval:
    """A real interval, open above, as a key domain; ``value in interval`` tests membership."""

    lo: float
    hi: float = math.inf
    lo_open: bool = False

    def __contains__(self, value) -> bool:
        return (self.lo < value if self.lo_open else self.lo <= value) and value < self.hi

    def __str__(self) -> str:
        return f"{'[('[self.lo_open]}{self.lo:g}, {self.hi:g})"


_POSITIVE = Interval(0, lo_open=True)


def _key(default, type_: type, kinds: tuple = KINDS, domain=None):
    """One config key: its default, value type, the kinds that read it and its domain.

    A list default makes a list key, whose scalar value is promoted to a
    one-element list and whose every element is checked.  ``domain`` is a
    tuple of allowed values or an ``Interval``; None allows any value of the type.
    """
    many = isinstance(default, list)
    meta = {"type": type_, "many": many, "kinds": kinds, "domain": domain}
    if many:
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


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


EXPORT_COLUMNS = tuple(f.name for f in fields(ResultRow))


@dataclass
class ExperimentConfig:
    experiment: str = _key("", str, domain=KINDS)
    seed: int | None = _key(None, int, domain=Interval(0))  # mandatory
    runs: int = _key(1, int, domain=Interval(1))
    threads: int = _key(1, int, domain=Interval(1))
    out: str = _key("results.csv", str)
    format: str = _key("csv", str, domain=("csv", "jsonl"))
    # dataset
    dataset: str = _key("", str, _DATA)
    columns: list = _key([], str, _DATA)
    id_column: str = _key("id", str, _DATA)
    subsample: int = _key(0, int, _DATA, Interval(0))  # 0: every row
    synth_n: int = _key(10000, int, _DATA, Interval(1))
    synth_ks: list = _key([16, 12, 8, 6, 4], int, _DATA, Interval(2))
    synth_zipf_a: float = _key(1.2, float, _DATA, Interval(-math.inf, lo_open=True))
    # grids
    protocols: list = _key(["grr"], str, ("analytic", "attack_oracle", "reident"))
    epsilons: list = _key([], float, domain=_POSITIVE)
    betas: list = _key([], float, ("reident",), Interval(0, 1, lo_open=True))
    ks: list = _key([74, 7, 16], int, ("analytic", "attack_oracle"), Interval(2))
    modes: list = _key(["uniform", "non_uniform"], str, ("analytic",),
                       ("uniform", "non_uniform"))
    n: int = _key(100000, int, ("attack_oracle",), Interval(1))
    # reident; RID is scored from survey 2 on, so fewer surveys export no rows
    solution: str = _key("smp", str, ("reident",), ("smp", *FAKE_DATA_VARIANTS))
    surveys: int = _key(5, int, ("reident",), Interval(2))
    survey_all_attributes: bool = _key(False, bool, ("reident",))
    sampling_mode: str = _key("without_replacement", str, ("reident",), SAMPLING_MODES)
    attack_models: list = _key(["fk"], str, ("reident",), ("fk", "pk", "null"))
    top_k: list = _key([1, 5, 10], int, ("reident",), Interval(1))
    nk_s_mult: float = _key(1.0, float, ("reident",), _POSITIVE)
    # attr-infer / mse
    variants: list = _key(["grr"], str, _FAKE, FAKE_DATA_VARIANTS["rs_fd"])  # every tag
    attack: list = _key(list(ATTACK_MODELS), str, ("attr_infer",), ATTACK_MODELS)
    s_mult: float = _key(1.0, float, ("attr_infer",), _POSITIVE)
    npk_frac: float = _key(0.1, float, ("attr_infer",), Interval(0, 1, lo_open=True))
    solutions: list = _key(["rs_fd", "rs_rfd"], str, _FAKE, tuple(FAKE_DATA_VARIANTS))
    prior_mode: str = _key("laplace", str, _DATA, ("laplace", "exact", "uniform"))
    # checked against (0, inf) only when laplace rs_rfd priors are drawn
    prior_epsilon: float = _key(0.1, float, _DATA)

    def validate(self) -> "ExperimentConfig":
        if self.seed is None:
            raise ConfigError("a seed is mandatory (no wall-clock seeding)")
        for f in fields(self):
            meta, value = f.metadata, getattr(self, f.name)
            if meta["many"] != isinstance(value, list):
                raise ConfigError(f"{f.name} must be {'a list' if meta['many'] else 'one value'}"
                                  f", got {value!r}")
            typ, domain = meta["type"], meta["domain"]
            for v in value if meta["many"] else [value]:
                if isinstance(v, bool) != (typ is bool) or not isinstance(v, _ACCEPTED[typ]):
                    raise ConfigError(f"{f.name} must be of type {typ.__name__}, got {v!r}")
                if domain is not None and v not in domain:
                    raise ConfigError(f"{f.name} must be in {domain}, got {v!r}")
            # only the keys that default to empty give an empty list a meaning
            if meta["many"] and not value and f.default_factory():
                raise ConfigError(f"{f.name} must not be empty")
        if not (self.epsilons or self.betas):
            raise ConfigError("the grid needs epsilons (or, for reident, betas)")
        for protocol, solution in self.collections:
            try:
                check_collection(solution, protocol)
            except ParameterError as exc:
                raise ConfigError(str(exc)) from exc
        _check_epsilons(self)
        if self.uses_rfd and self.prior_mode == "laplace" and self.prior_epsilon not in _POSITIVE:
            raise ConfigError(f"prior_epsilon must be in {_POSITIVE}, got {self.prior_epsilon!r}")
        return self

    @property
    def collections(self) -> list[tuple[str, str]]:
        """Every (protocol or variant tag, solution) pair the grid runs."""
        if self.experiment in _FAKE:
            return [(v, s) for v in self.variants for s in self.solutions]
        solution = self.solution if self.experiment == "reident" else "smp"
        return [(p, solution) for p in self.protocols]

    @property
    def uses_rfd(self) -> bool:
        """Whether some collection of this experiment draws fakes from rs_rfd priors."""
        return any(solution == "rs_rfd" for _, solution in self.collections)


KEYS = {f.name: f.metadata for f in fields(ExperimentConfig)}


def _check_epsilons(cfg: ExperimentConfig, d: int | None = None) -> None:
    """Every epsilon calibrates every protocol the grid runs.

    Fake-data collections randomize at the amplified epsilon; pass the
    dataset's attribute count ``d`` to check that too.
    """
    calibrations = {(tag, False) if solution == "smp" else (variant_oracle(tag), True)
                    for tag, solution in cfg.collections}
    for eps in cfg.epsilons:
        try:
            for proto, fake in sorted(calibrations):
                protocol_params(proto, amplified_epsilon(eps, d) if fake and d else eps, 2)
        except (ParameterError, OverflowError) as exc:
            raise ConfigError(f"epsilon {eps!r}: {exc}") from exc


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
    """Parse the flat key/value config format into a raw dict; a key may appear once."""
    out: dict = {}
    lines: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in lines:
            raise ConfigError(f"line {line_no}: key {key!r} repeats line {lines[key]}")
        lines[key] = line_no
        if "," in value:
            out[key] = [_coerce(v) for v in value.split(",") if v.strip()]
        else:
            out[key] = _coerce(value)
    return out


def build_config(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Raw dict (+ CLI overrides, which win) -> validated config.

    A key the experiment kind does not read is an error, not ignored.
    """
    merged = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    unknown = set(merged) - set(KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kind = merged.get("experiment")
    if kind in KINDS:
        unread = sorted(key for key in merged if kind not in KEYS[key]["kinds"])
        if unread:
            raise ConfigError(f"{kind} does not read the keys {unread}")
    cfg = ExperimentConfig()
    for key, value in merged.items():
        if KEYS[key]["many"] and not isinstance(value, list):
            value = [value]
        setattr(cfg, key, value)
    return cfg.validate()


def resolve_dataset(cfg: ExperimentConfig) -> Dataset:
    """Materialize the config's dataset; a failing spec or a one-value column is a config error."""
    spec = cfg.dataset
    if not spec:
        raise ConfigError("this experiment needs a dataset")
    try:
        if spec.startswith("synth:"):
            kind = spec.split(":", 1)[1]
            if cfg.columns or cfg.id_column != ExperimentConfig.id_column:
                raise ConfigError("a synthetic dataset takes no columns or id_column")
            rng = stream(cfg.seed, 7001)
            if kind == "zipf":
                ds = zipf_dataset(cfg.synth_n, cfg.synth_ks, cfg.synth_zipf_a, rng)
            elif kind == "uniform":
                ds = uniform_dataset(cfg.synth_n, cfg.synth_ks, rng)
            else:
                raise ConfigError(f"unknown synthetic dataset {kind!r}")
        else:
            with dataset_file(spec) as path:
                ds = load_dataset(path, cfg.columns or None, cfg.id_column or None)
        if cfg.subsample:
            ds = ds.subsample(cfg.subsample, stream(cfg.seed, 7002))
        constant = [name for name, k in zip(ds.names, ds.ks) if k < 2]
        if constant:
            raise DomainError(f"columns {constant} hold one value; every attribute needs k >= 2")
    except (OSError, UnicodeDecodeError, LdpSimError) as exc:
        raise ConfigError(f"dataset {spec!r}: {exc}") from exc
    return ds


def _point_seed(master: int, grid_idx: int) -> int:
    """Derived integer seed for one grid point (independent of thread order)."""
    return int(np.random.SeedSequence(master, spawn_key=(9090, grid_idx)).generate_state(1)[0])


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


# ---------------------------------------------------------------------------
# Experiment kinds: one point function each, called as
# fn(cfg, dataset, rs_rfd priors, point seed, *grid axes, run)
# ---------------------------------------------------------------------------

def _analytic_point(cfg: ExperimentConfig, ds, priors, seed: int, proto: str,
                    eps: float, run: int) -> list[ResultRow]:
    return [ResultRow(cfg.experiment, proto, "smp", eps, None, f"acc_{mode}",
                      multi_collection_acc(proto, eps, cfg.ks, mode), None, run, cfg.seed)
            for mode in cfg.modes]


def _attack_oracle_point(cfg: ExperimentConfig, ds, priors, seed: int, proto: str,
                         eps: float, k: int, run: int) -> list[ResultRow]:
    emp = empirical_attack_acc(proto, eps, k, cfg.n, stream(seed, run))
    ana = analytic_acc(proto, eps, k)
    se = 100.0 * math.sqrt(max(ana / 100 * (1 - ana / 100), 0.0) / cfg.n)
    flag = f"k={k}"
    return [
        ResultRow(cfg.experiment, proto, None, eps, None, f"acc_empirical_k{k}",
                  emp, se, run, cfg.seed, flag),
        ResultRow(cfg.experiment, proto, None, eps, None, f"acc_analytic_k{k}",
                  ana, None, run, cfg.seed, flag),
    ]


def _rfd_priors(cfg: ExperimentConfig, ds: Dataset) -> tuple[list[np.ndarray] | None, bool]:
    """The rs_rfd priors (laplace noise from stream 7003) and whether one fell back to
    uniform; (None, False) when no collection uses them."""
    if not cfg.uses_rfd:
        return None, False
    if cfg.prior_mode == "uniform":
        return uniform_priors(ds.ks), False
    freqs = true_frequencies(ds)
    if cfg.prior_mode == "exact":
        return freqs, False
    priors, fallback = laplace_prior(freqs, cfg.prior_epsilon, ds.n, stream(cfg.seed, 7003))
    return priors, any(fallback)


def _check_counts(cfg: ExperimentConfig, n: int) -> None:
    """Refuse an npk_frac, s_mult or nk_s_mult that leaves an attack no user it
    needs, and betas on a dataset too small for the Bayes-error bound."""
    models = set(cfg.attack) if cfg.experiment == "attr_infer" else set()
    try:
        for beta in cfg.betas:
            alpha_from_bayes_error(beta, n)
        if models & {"pk", "hm"}:
            compromised_count(cfg.npk_frac, n)
        if models & {"nk", "hm"}:
            synthetic_count(cfg.s_mult, n)
        if cfg.experiment == "reident" and cfg.solution != "smp":
            synthetic_count(cfg.nk_s_mult, n)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def _reident_point(cfg: ExperimentConfig, ds: Dataset, priors, seed: int, proto: str,
                   eps: float | None, beta: float | None, model: str, run: int) -> list[ResultRow]:
    epsilons, budget_flags = (eps, []) if beta is None else beta_epsilons(beta, ds.n, ds.ks)
    surveys = SurveysConfig(cfg.surveys, cfg.survey_all_attributes)
    acc, flags = run_reident_experiment(
        ds, proto, cfg.solution, epsilons, surveys, attack_mode=model, top_ks=cfg.top_k,
        sampling_mode=cfg.sampling_mode, runs=1, seed=seed + run, rfd_priors=priors,
        nk_s_mult=cfg.nk_s_mult)
    return [ResultRow(cfg.experiment, proto, cfg.solution, eps, beta,
                      f"rid_acc_top{k}_sv{s + 2}", value, None, run, cfg.seed,
                      ";".join(budget_flags + flags[0][s]))
            for s, values in enumerate(acc[0].tolist()) for k, value in zip(cfg.top_k, values)]


def _attr_infer_point(cfg: ExperimentConfig, ds: Dataset, priors, seed: int, vtag: str,
                      eps: float, solution: str, run: int) -> list[ResultRow]:
    collection = CollectionConfig(ds.ks, solution, vtag, eps, priors)
    results = run_attr_infer_experiment(
        ds.rows, collection, attack_models=cfg.attack, s_mult=cfg.s_mult,
        npk_frac=cfg.npk_frac, run=run, seed=seed,
    )
    return [ResultRow(cfg.experiment, vtag, solution, eps, None, f"aif_acc_{model}",
                      results[model][0], None, run, cfg.seed,
                      ";".join(["classifier=naive_bayes", *results[model][1]]))
            for model in cfg.attack]  # a model listed twice keeps its two rows


def _mse_point(cfg: ExperimentConfig, ds: Dataset, priors, seed: int, solution: str,
               vtag: str, eps: float, run: int) -> list[ResultRow]:
    truth = true_frequencies(ds)
    collection = CollectionConfig(ds.ks, solution, vtag, eps, priors)
    batches, _ = rs_sanitize_batch(ds.rows, collection, stream(seed, run))
    value = mse_avg(truth, rs_estimate(batches, collection))
    return [ResultRow(cfg.experiment, vtag, solution,
                      eps, None, "mse_avg", value, None, run, cfg.seed,
                      f"prior_mode={cfg.prior_mode}")]


def _grid(cfg: ExperimentConfig) -> list[tuple]:
    """(seed index, point function, axes) for every grid point, in output order."""
    eps = [float(e) for e in cfg.epsilons]
    kind = cfg.experiment
    if kind == "analytic":
        fn, points = _analytic_point, [(p, e) for p in cfg.protocols for e in eps]
    elif kind == "attack_oracle":
        fn, points = _attack_oracle_point, [(p, e, int(k)) for p in cfg.protocols
                                            for e in eps for k in cfg.ks]
    elif kind == "reident":
        budgets = [(e, None) for e in eps] + [(None, float(b)) for b in cfg.betas]
        fn, points = _reident_point, [(p, e, b, m) for p in cfg.protocols for e, b in budgets
                                      for m in cfg.attack_models]
    elif kind == "attr_infer":
        fn, points = _attr_infer_point, [(v, e, s) for v in cfg.variants for e in eps
                                         for s in cfg.solutions]
    else:
        # both solutions of a (variant, eps) pair, and a repeated pair, share
        # one seed, so the rs_fd / rs_rfd comparison runs on identical streams
        pairs = [(v, e) for v in cfg.variants for e in eps]
        return [(pairs.index((v, e)), _mse_point, (s, v, e))
                for s in cfg.solutions for v, e in pairs]
    return [(i, fn, axes) for i, axes in enumerate(points)]


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Execute every grid point x run of the configured experiment."""
    cfg.validate()
    ds, priors, fell_back = None, None, False
    if cfg.experiment in _DATA:
        ds = resolve_dataset(cfg)
        _check_epsilons(cfg, ds.d)
        _check_counts(cfg, ds.n)
        priors, fell_back = _rfd_priors(cfg, ds)
    tasks = [partial(fn, cfg, ds, priors, _point_seed(cfg.seed, seed_idx), *axes, run)
             for seed_idx, fn, axes in _grid(cfg) for run in range(cfg.runs)]
    if cfg.threads == 1:  # a pool of one measured 2 MiB more peak RSS on oracle_sweep
        batches = [task() for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            batches = list(pool.map(lambda task: task(), tasks))
    rows = [row for batch in batches for row in batch]
    if fell_back:  # every rs_rfd row draws its fakes from the priors
        rows = [replace(r, flags=";".join(filter(None, (r.flags, "prior_fallback"))))
                if r.solution == "rs_rfd" else r for r in rows]
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
            # strings JSON-quoted, None as null, numbers as in the CSV
            values = [getattr(r, c) for c in EXPORT_COLUMNS]
            parts = [f'"{c}": ' + (json.dumps(v) if isinstance(v, str) else _fmt(v) or "null")
                     for c, v in zip(EXPORT_COLUMNS, values)]
            lines.append("{" + ", ".join(parts) + "}")
        path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    else:
        raise ConfigError(f"unknown export format {format!r}")
    return path
