"""Report records and their CSV/JSON renderings.

The density limit constants are kept as exact rationals (953/32768 for
q = 1 mod 4 and 825/65536 for q = 3 mod 4) and rendered to six significant
digits; every other numeric field is emitted with full float repr so CSV and
JSON carry identical values.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

LIMIT_MOD1 = Fraction(953, 32768)
LIMIT_MOD3 = Fraction(825, 65536)

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
    return LIMIT_MOD1 if q % 4 == 1 else LIMIT_MOD3


def limit_rendered(q: int) -> float:
    return float(f"{float(limit_constant(q)):.6g}")


def density_bound_slack(q: int, sigma: int) -> float:
    """Right side minus left side of the global density inequality for q."""
    alpha = float(limit_constant(q))
    if q % 4 == 3:
        rhs = 138 * q * math.sqrt(q) + 235 * q
    else:
        rhs = 2518 * q * math.sqrt(q) + 2623 * q
    return rhs - abs(sigma - alpha * q * q)


@dataclass(frozen=True)
class SigmaReport:
    q: int
    mod4: int
    sigma_card: int
    sigma: int
    density: float
    limit: float
    abs_gap: float
    bound_slack: float
    sigma_count_method: str
    seconds: float

    @classmethod
    def build(
        cls,
        q: int,
        sigma_card: int,
        sigma: int,
        method: str,
        seconds: float,
    ) -> "SigmaReport":
        density = sigma / (q * q)
        gap = abs(Fraction(sigma, q * q) - limit_constant(q))
        return cls(
            q=q,
            mod4=q % 4,
            sigma_card=sigma_card,
            sigma=sigma,
            density=density,
            limit=limit_rendered(q),
            abs_gap=float(gap),
            bound_slack=density_bound_slack(q, sigma),
            sigma_count_method=method,
            seconds=seconds,
        )

    def to_dict(self) -> dict:
        return asdict(self)


def to_json(obj: dict | list) -> str:
    return json.dumps(obj, indent=2) + "\n"


def rows_to_csv(header: tuple[str, ...], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if row.get(k) is None else row.get(k) for k in header])
    return buf.getvalue()


def density_row(report: SigmaReport) -> dict:
    return {k: getattr(report, k) for k in DENSITY_HEADER}
