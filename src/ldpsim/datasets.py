"""Dataset ingestion, frequency utilities, priors, and the utility metric.

CSV ingestion builds per-column value dictionaries in first-appearance
order, so the same file always produces the same integer encoding.  Two
deterministic synthetic fixtures ship with the package (census-style column
layouts at desk scale); real datasets load from user-supplied CSVs.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DomainError, ParameterError
from .multidim import _categorical, validate_priors, value_dtype
from .oracles import clip_normalize

FIXTURES = {
    "adult_style_5000": "adult_style_5000.csv",
    "adult_style_100": "adult_style_100.csv",
    "acs_style_1000": "acs_style_1000.csv",
}


@dataclass
class Dataset:
    """Integer-encoded categorical table plus its schema: ``names[a]`` names attribute a
    and ``labels[a][v]`` labels its value v, so k_a = len(labels[a]).  No attribute, a
    label-tuple count unlike the name count, or an empty or repeated label tuple raises
    DomainError."""

    names: tuple[str, ...]
    labels: tuple[tuple[str, ...], ...]
    rows: np.ndarray

    def __post_init__(self):
        if len(self.names) < 1:
            raise DomainError("a dataset needs at least one attribute")
        if len(self.labels) != len(self.names):
            raise DomainError(f"{len(self.labels)} label tuples for {len(self.names)} attributes")
        for name, values in zip(self.names, self.labels):
            if not values or len(set(values)) != len(values):
                raise DomainError(f"attribute {name!r} has an empty domain or repeated labels")

    @classmethod
    def from_ks(cls, ks: Sequence[int], rows: np.ndarray) -> "Dataset":
        """The synthetic schema: attribute i is ``a{i}``, its value v ``a{i}_v{v}``."""
        return cls(tuple(f"a{i}" for i in range(len(ks))),
                   tuple(tuple(f"a{i}_v{v}" for v in range(k)) for i, k in enumerate(ks)), rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def d(self) -> int:
        return len(self.names)

    @property
    def ks(self) -> tuple[int, ...]:
        return tuple(len(values) for values in self.labels)

    def subsample(self, n: int, rng: np.random.Generator) -> "Dataset":
        """Uniform row subsample without replacement (domains unchanged)."""
        if n > self.n:
            raise ParameterError(f"cannot subsample {n} of {self.n} rows")
        idx = np.sort(rng.choice(self.n, size=n, replace=False))
        return Dataset(self.names, self.labels, self.rows[idx])


def load_dataset(path: str | Path, columns: Sequence[str] | None = None,
                 id_column: str | None = None) -> Dataset:
    """Read a UTF-8 CSV with header, BOM or not, into an integer-encoded dataset.

    ``columns`` selects and orders the categorical attributes (default: all
    non-id columns in header order); ``id_column`` is only checked, no ids are
    kept.  Value dictionaries are built in first-appearance order, so
    ingestion is deterministic.  A header or ``columns`` that repeats a name
    or names ``id_column``, a header that lacks a selected column or
    ``id_column``, and a ragged or malformed row raise DomainError.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DomainError(f"{path} is empty") from None
            if columns is None:
                columns = [c for c in header if c != id_column]
            for what, names in ((f"header of {path}", header), ("columns", list(columns))):
                repeated = sorted({c for c in names if names.count(c) > 1})
                if repeated:
                    raise DomainError(f"{what} repeats {repeated}")
            if id_column is not None and id_column in columns:
                raise DomainError(f"columns name the id column {id_column!r}")
            wanted = list(columns) if id_column is None else [*columns, id_column]
            missing = [c for c in wanted if c not in header]
            if missing:
                raise DomainError(f"columns {missing} not in header of {path}")
            col_idx = [header.index(c) for c in columns]

            dicts: list[dict] = [{} for _ in columns]
            encoded: list[list[int]] = []
            for row in reader:
                if len(row) != len(header):
                    raise DomainError(f"{path}:{reader.line_num}: ragged row ({len(row)} fields)")
                rec = []
                for j, ci in enumerate(col_idx):
                    label = row[ci]
                    d = dicts[j]
                    if label not in d:
                        d[label] = len(d)
                    rec.append(d[label])
                encoded.append(rec)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise DomainError(f"{path}:{reader.line_num}: {exc}") from None
    if not encoded:
        raise DomainError(f"{path} has no data rows")
    empty = [c for c, d in zip(columns, dicts) if len(d) == 0]
    if empty:
        raise DomainError(f"columns {empty} are empty")
    return Dataset(tuple(columns), tuple(tuple(d) for d in dicts),
                   np.asarray(encoded, dtype=np.int64))


def dataset_file(spec: str):
    """Context manager giving the CSV path of a CSV path or ``fixture:<name>`` spec."""
    if not spec.startswith("fixture:"):
        return nullcontext(spec)
    name = spec.split(":", 1)[1]
    if name not in FIXTURES:
        raise ParameterError(f"unknown fixture {name!r}; available: {sorted(FIXTURES)}")
    return resources.as_file(resources.files("ldpsim.data").joinpath(FIXTURES[name]))


def load_fixture(name: str) -> Dataset:
    """Load one of the bundled deterministic fixtures by short name."""
    with dataset_file(f"fixture:{name}") as path:
        return load_dataset(path, id_column="id")


def true_frequencies(dataset: Dataset) -> list[np.ndarray]:
    """Exact empirical distribution per attribute."""
    out = []
    for a, k in enumerate(dataset.ks):
        counts = np.bincount(dataset.rows[:, a], minlength=k)
        out.append(counts / counts.sum())
    return out


def perturb_frequencies(freqs: np.ndarray, scale: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Raw Laplace-noised frequency vector (before clipping/normalization)."""
    freqs = np.asarray(freqs, dtype=np.float64)
    return freqs + rng.laplace(0.0, scale, size=freqs.shape)


def laplace_prior(
    true_freqs: Sequence[np.ndarray],
    total_epsilon: float,
    n: int,
    rng: np.random.Generator,
) -> tuple[list[np.ndarray], list[bool]]:
    """Noisy priors: per-attribute Laplace mechanism on the true frequencies.

    The budget splits evenly over the d attributes and a normalized
    histogram has sensitivity 2/n, so each frequency takes Laplace noise of
    scale 2 / (n * (total_epsilon / d)).  Returns :func:`clip_or_uniform`
    of the noisy vectors: (priors, fallback flags).
    """
    if total_epsilon <= 0:
        raise ParameterError("total_epsilon must be > 0")
    if n < 1:
        raise ParameterError("n must be >= 1")
    scale = 2.0 / (n * (total_epsilon / len(true_freqs)))
    return clip_or_uniform([perturb_frequencies(f, scale, rng) for f in true_freqs])


def clip_or_uniform(vectors: Sequence[np.ndarray]) -> tuple[list[np.ndarray], list[bool]]:
    """:func:`clip_normalize` each vector; one with no positive entry has no mass
    left, so it becomes uniform and its flag is set.  Returns (distributions, flags).
    """
    fell_back = [not (np.asarray(vec) > 0).any() for vec in vectors]
    return [np.full(len(vec), 1.0 / len(vec)) if empty else clip_normalize(vec)
            for vec, empty in zip(vectors, fell_back)], fell_back


def synthesize_profiles(freqs: Sequence[np.ndarray], count: int, rng: np.random.Generator,
                        ks: Sequence[int]) -> np.ndarray:
    """(count, d) rows of ``value_dtype(ks)`` (uint8 up to k = 256) of independent
    categorical draws, column a from ``freqs[a]`` over ks[a], drawn column by column."""
    if count < 0:
        raise ParameterError("count must be >= 0")
    freqs = validate_priors(freqs, ks)
    rows = np.empty((count, len(freqs)), dtype=value_dtype(ks))
    for a, f in enumerate(freqs):
        rows[:, a] = _categorical(f, count, rng)
    return rows


def mse_avg(true_tables: Sequence[np.ndarray], est_tables: Sequence[np.ndarray]) -> float:
    """Mean over attributes of the per-attribute mean squared frequency error."""
    if len(true_tables) != len(est_tables):
        raise ParameterError("table lists differ in length")
    total = 0.0
    for t, e in zip(true_tables, est_tables):
        t = np.asarray(t, dtype=np.float64)
        e = np.asarray(e, dtype=np.float64)
        if t.shape != e.shape:
            raise ParameterError(f"shape mismatch {t.shape} vs {e.shape}")
        total += float(np.mean((t - e) ** 2))
    return total / len(true_tables)


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------

def zipf_marginal(k: int, exponent: float) -> np.ndarray:
    """Zipf-shaped probability vector over k values."""
    w = 1.0 / np.arange(1, k + 1, dtype=np.float64) ** exponent
    return w / w.sum()


def zipf_dataset(n: int, ks: Sequence[int], exponent: float,
                 rng: np.random.Generator) -> Dataset:
    """Synthetic dataset with independent Zipf-like marginals per attribute.

    Each attribute's masses are permuted over its values, so the heavy value
    is not always index 0.
    """
    cols = [_categorical(zipf_marginal(k, exponent)[rng.permutation(k)], n, rng) for k in ks]
    return Dataset.from_ks(ks, np.column_stack(cols).astype(np.int64))


def uniform_dataset(n: int, ks: Sequence[int], rng: np.random.Generator) -> Dataset:
    """Synthetic dataset with independent uniform marginals per attribute."""
    return Dataset.from_ks(ks, np.column_stack([rng.integers(0, k, size=n) for k in ks]))
