"""Regenerate the bundled synthetic census-style fixtures.

    python tools/gen_fixtures.py              # the three bundled fixtures
    python tools/gen_fixtures.py adult N OUT  # an n = N adult-style table at OUT

The second form writes ``make_adult_style(N, seed=20240501, cover=True)``,
the seed of ``adult_style_5000``; ``adult 45222 OUT`` is the paper-size
table, which is not bundled.

Deterministic: every run writes byte-identical files.  The first k_j rows
of each column cycle through the whole value list so the encoded domain
sizes are exactly the intended k vector; remaining rows follow skewed
(Zipf-like) marginals.  Rows are shuffled afterwards so the coverage block
is not a visible prefix.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import numpy as np

from ldpsim.datasets import zipf_marginal
from ldpsim.rng import stream

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "ldpsim" / "data"

WORKCLASS = ["Private", "Self-emp-not-inc", "Self-emp-inc", "Federal-gov",
             "Local-gov", "State-gov", "Without-pay"]
EDUCATION = ["HS-grad", "Some-college", "Bachelors", "Masters", "Assoc-voc",
             "11th", "Assoc-acdm", "10th", "7th-8th", "Prof-school", "9th",
             "12th", "Doctorate", "5th-6th", "1st-4th", "Preschool"]
MARITAL = ["Married-civ-spouse", "Never-married", "Divorced", "Separated",
           "Widowed", "Married-spouse-absent", "Married-AF-spouse"]
OCCUPATION = ["Prof-specialty", "Craft-repair", "Exec-managerial", "Adm-clerical",
              "Sales", "Other-service", "Machine-op-inspct", "Transport-moving",
              "Handlers-cleaners", "Farming-fishing", "Tech-support",
              "Protective-serv", "Priv-house-serv", "Armed-Forces"]
RELATIONSHIP = ["Husband", "Not-in-family", "Own-child", "Unmarried", "Wife",
                "Other-relative"]
RACE = ["White", "Black", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other"]
SEX = ["Male", "Female"]
SALARY = ["<=50K", ">50K"]

# exponents tuned so the top-value concentrations track the census table
# this fixture stands in for (country ~0.86, race ~0.84, workclass ~0.71, ...)
ADULT_COLUMNS = [
    ("age", [str(a) for a in range(17, 91)], 0.5),          # k = 74
    ("workclass", WORKCLASS, 2.2),                          # k = 7
    ("education", EDUCATION, 1.3),                          # k = 16
    ("marital_status", MARITAL, 1.3),                       # k = 7
    ("occupation", OCCUPATION, 0.9),                        # k = 14
    ("relationship", RELATIONSHIP, 1.1),                    # k = 6
    ("race", RACE, 3.0),                                    # k = 5
    ("sex", SEX, 1.1),                                      # k = 2
    ("native_country", [f"country_{i:02d}" for i in range(41)], 3.2),  # k = 41
    ("salary", SALARY, 1.6),                                # k = 2
]

ACS_KS = [92, 25, 5, 2, 2, 9, 4, 5, 5, 4, 2, 18, 2, 2, 3, 9, 3, 6]
ACS_NAMES = ["AGEP", "SCHL", "MAR", "SEX", "DIS", "ESP", "CIT", "MIG", "MIL",
             "ANC", "NATIVITY", "RELP", "DEAR", "DEYE", "DREM", "RAC1P",
             "ESR", "COW"]


def skewed_column(values: list[str], n: int, exponent: float,
                  rng: np.random.Generator, cover: bool) -> list[str]:
    k = len(values)
    pv = zipf_marginal(k, exponent)
    pv = pv[rng.permutation(k)]
    draws = rng.choice(k, size=n, p=pv)
    if cover and n >= k:
        draws[:k] = np.arange(k)  # force full label coverage
    return [values[i] for i in draws]


def write_table(path: str | Path, names: list[str], columns: list[list[str]],
                shuffle_seed: int) -> None:
    path = Path(path)
    n = len(columns[0])
    order = stream(shuffle_seed, 0).permutation(n)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + names)
        for out_row, src in enumerate(order):
            writer.writerow([f"u{out_row:05d}"] + [col[src] for col in columns])
    print(f"wrote {path} ({n} rows x {len(names)} cols)")


def make_adult_style(n: int, seed: int, path: str | Path, cover: bool) -> None:
    names = [name for name, _, _ in ADULT_COLUMNS]
    columns = []
    for j, (name, values, expo) in enumerate(ADULT_COLUMNS):
        columns.append(skewed_column(values, n, expo, stream(seed, j), cover))
    write_table(path, names, columns, shuffle_seed=seed + 999)


def make_acs_style(n: int, seed: int, path: str | Path) -> None:
    columns = []
    for j, (name, k) in enumerate(zip(ACS_NAMES, ACS_KS)):
        values = [f"{name}_{i:02d}" for i in range(k)]
        expo = 1.4 if k <= 6 else 1.1
        columns.append(skewed_column(values, n, expo, stream(seed, j), cover=True))
    write_table(path, ACS_NAMES, columns, shuffle_seed=seed + 999)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args:
        DATA_DIR.mkdir(parents=True, exist_ok=True)
        make_adult_style(5000, seed=20240501, path=DATA_DIR / "adult_style_5000.csv", cover=True)
        make_adult_style(100, seed=20240502, path=DATA_DIR / "adult_style_100.csv", cover=False)
        make_acs_style(1000, seed=20240503, path=DATA_DIR / "acs_style_1000.csv")
        return 0
    if len(args) == 3 and args[0] == "adult" and args[1].isdigit() and int(args[1]) > 0:
        make_adult_style(int(args[1]), seed=20240501, path=args[2], cover=True)
        return 0
    print("usage: gen_fixtures.py [adult N OUT]", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
