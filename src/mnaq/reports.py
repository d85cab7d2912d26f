"""Report rows (sigma_row) and their CSV/JSON renderings.

The density limit constants are exact rationals computed from the class rules
(limit_constant) and rendered to six significant digits; every other numeric
field is emitted with full float repr so CSV and JSON carry identical values.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from fractions import Fraction

import numpy as np

from .charside import CHAR_NAMES, class_masks
from .quasigroup import sigma_cardinality

DENSITY_HEADER = (
    "q",
    "mod4",
    "sigma",
    "sigma_count_method",
    "density",
    "limit",
    "abs_gap",
    "bound_slack",
    "seconds",
)


def limit_constant(q: int) -> Fraction:
    """lim sigma(q)/q^2 over q of this residue mod 4 (the paper's alpha and beta):
    the share of the sign cube {+-1}^CHAR_NAMES that class_masks leaves in T,
    times 1/4 for x and y being squares."""
    return _limit_of_residue(q % 4)


@functools.cache
def _limit_of_residue(mod4: int) -> Fraction:
    n = len(CHAR_NAMES)
    # sign i runs along axis i of a (2,) * n grid, so each rule broadcasts over its own signs
    cube = {name: np.array([1, -1], dtype=np.int8).reshape(tuple(shape))
            for name, shape in zip(CHAR_NAMES, 1 + np.eye(n, dtype=int))}
    in_t = ~class_masks(mod4, cube).any(axis=0)
    return Fraction(int(in_t.sum()), 2**(n + 2))


def density_bound_slack(q: int, sigma: int) -> float:
    """Right side minus left side of the global density inequality for q."""
    alpha = float(limit_constant(q))
    if q % 4 == 3:
        rhs = 138 * q * math.sqrt(q) + 235 * q
    else:
        rhs = 2518 * q * math.sqrt(q) + 2623 * q
    return rhs - abs(sigma - alpha * q * q)


def sigma_row(q: int, sigma: int, method: str, seconds: float) -> dict:
    """The report of one count of sigma(q), in the order `mnaq count` prints it."""
    limit = limit_constant(q)
    return {
        "q": q,
        "mod4": q % 4,
        "sigma_card": sigma_cardinality(q),
        "sigma": sigma,
        "density": sigma / (q * q),
        "limit": float(f"{float(limit):.6g}"),
        "abs_gap": float(abs(Fraction(sigma, q * q) - limit)),
        "bound_slack": density_bound_slack(q, sigma),
        "sigma_count_method": method,
        "seconds": seconds,
    }


def to_json(obj: dict | list) -> str:
    return json.dumps(obj, indent=2) + "\n"


def rows_to_csv(header: tuple[str, ...], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if row.get(k) is None else row.get(k) for k in header])
    return buf.getvalue()

