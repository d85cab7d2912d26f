"""Quadratic orthomorphisms, the quasigroups they define, and the Σ/S bijection.

For a parameter pair (a, b) the orthomorphism maps squares u to a*u and
nonsquares to b*u; the quasigroup operation is u * v = u + psi(v - u).
Valid parameter pairs (the set Sigma) have a, b outside {0, 1}, a != b, and
both a*b and (1-a)(1-b) nonzero squares.  The square-pair set S consists of
distinct nonzero, non-one squares (x, y); psi_map sends (a, b) to
(a/b, (1-a)/(1-b)) and phi_map inverts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple

import numpy as np

from .errors import NotInS, NotInSigma, TooLarge
from .field import Field

CAYLEY_LIMIT = 512  # materialized q x q tables above this are not allowed


class SigmaPair(NamedTuple):
    a: int
    b: int


class SPair(NamedTuple):
    x: int
    y: int


def sigma_cardinality(q: int) -> int:
    """Closed form (q^2 - 8q + 15)/4 for |Sigma| = |S|."""
    return (q * q - 8 * q + 15) // 4 if q >= 5 else 0


def is_sigma_pair(F: Field, a: int, b: int) -> bool:
    """Membership of (a, b) in Sigma: the one-pair view of sigma_mask."""
    return bool(sigma_mask(F, a, b))


def is_s_pair(F: Field, x: int, y: int) -> bool:
    if x in (0, 1) or y in (0, 1) or x == y:
        return False
    return F.chi(x) == 1 and F.chi(y) == 1


def psi(F: Field, pair: SigmaPair, u: int) -> int:
    """a*u when chi(u) >= 0 (so psi(0) = 0), b*u when u is a nonsquare."""
    return F.mul(pair[0] if F.chi_table[u] >= 0 else pair[1], u)


def qmul(F: Field, pair: SigmaPair, u: int, v: int) -> int:
    return F.add(u, psi(F, pair, F.sub(v, u)))


def psi_vec(F: Field, pair: SigmaPair, W: np.ndarray) -> np.ndarray:
    return F.vmul(np.where(F.chi_table[W] >= 0, *pair), W)


def qmul_vec(F: Field, pair: SigmaPair, U, V) -> np.ndarray:
    """u * v over code arrays U, V that broadcast together."""
    return F.vadd(U, psi_vec(F, pair, F.vsub(V, U)))


def psi_map(F: Field, pair: SigmaPair) -> SPair:
    """The bijection Sigma -> S, (a, b) |-> (a/b, (1-a)/(1-b))."""
    a, b = pair
    if not is_sigma_pair(F, a, b):
        raise NotInSigma(f"({a}, {b}) is not in Sigma(F_{F.q})")
    x = F.div(a, b)
    y = F.div(F.sub(1, a), F.sub(1, b))
    return SPair(x, y)


def phi_map(F: Field, sp: SPair) -> SigmaPair:
    """The inverse S -> Sigma, (x, y) |-> (x(1-y)/(x-y), (1-y)/(x-y))."""
    x, y = sp
    if not is_s_pair(F, x, y):
        raise NotInS(f"({x}, {y}) is not in S(F_{F.q})")
    d = F.inv(F.sub(x, y))
    b = F.mul(F.sub(1, y), d)
    a = F.mul(x, b)
    return SigmaPair(a, b)


def sigma_mask(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Membership in Sigma of (a, b) for codes A, B: ints, or arrays that broadcast
    together."""
    # outside {0, 1}, chi(ab) = 1 iff chi(a) = chi(b), and so for 1-a, 1-b; a pair
    # a != b that meets {0, 1} has chi(a) != chi(b) or chi(1-a) != chi(1-b)
    chi, chi_1m = F.chi_table, F.chi_one_minus
    in_a, in_b = (0 <= A) & (A < F.q), (0 <= B) & (B < F.q)  # no code outside [0, q) counts
    A, B = A * in_a, B * in_b  # such a code, a Python int of any size too, reads entry 0
    return in_a & in_b & (A != B) & (chi[A] == chi[B]) & (chi_1m[A] == chi_1m[B])


def sigma_rows(F: Field, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b): the pairs of Sigma whose a is in rows (ascending), in that order."""
    codes = np.arange(2, F.q, dtype=np.int64)
    ia, ib = np.divmod(np.flatnonzero(sigma_mask(F, rows[:, None], codes)), len(codes))
    return rows[ia], codes[ib]


def enumerate_sigma(F: Field) -> list[SigmaPair]:
    """All of Sigma in ascending (code(a), code(b)) order."""
    a, b = sigma_rows(F, np.arange(2, F.q))
    return list(map(SigmaPair._make, zip(a.tolist(), b.tolist())))


def enumerate_S(F: Field) -> list[SPair]:
    """All of S in ascending (code(x), code(y)) order."""
    squares = (np.flatnonzero(F.chi_table[2:] == 1) + 2).tolist()
    return list(map(SPair._make, permutations(squares, 2)))


def least_nonsquare(F: Field) -> int:
    """The nonsquare with the least element code (shared convention zeta)."""
    return int(F.chi_table.argmin())  # -1 is the least chi value; argmin takes the first


def cayley_table(F: Field, pair: SigmaPair) -> np.ndarray:
    """Materialized q x q operation table; guarded to q <= CAYLEY_LIMIT."""
    if F.q > CAYLEY_LIMIT:
        raise TooLarge(f"Cayley tables are materialized only for q <= {CAYLEY_LIMIT}")
    return qmul_vec(F, pair, F.codes[:, None], F.codes[None, :])


def is_latin_square(table: np.ndarray) -> bool:
    q = table.shape[0]
    want = np.arange(q, dtype=table.dtype)
    rows_ok = bool((np.sort(table, axis=1) == want[None, :]).all())
    cols_ok = bool((np.sort(table, axis=0) == want[:, None]).all())
    return rows_ok and cols_ok


def is_idempotent(table: np.ndarray) -> bool:
    q = table.shape[0]
    return bool((np.diagonal(table) == np.arange(q, dtype=table.dtype)).all())


@dataclass(frozen=True)
class OppositeIsoReport:
    """Outcome of the multiplier-isomorphism and opposite checks for one pair."""

    iso_ok: bool
    opposite_ok: bool
    iso_witness: tuple[int, int] | None
    opposite_witness: tuple[int, int] | None


def _first_mismatch(q: int, left, right) -> tuple[int, int] | None:
    """The first (u, v) in row order with left(U, V) != right(U, V), or None.  Each
    side maps a block of row codes U (a column) and all codes V (a row) to a grid;
    blocks hold CAYLEY_LIMIT rows, so no q x q table is ever materialized."""
    V = np.arange(q, dtype=np.int64)[None, :]
    for lo in range(0, q, CAYLEY_LIMIT):
        U = np.arange(lo, min(q, lo + CAYLEY_LIMIT), dtype=np.int64)[:, None]
        bad = np.nonzero(left(U, V) != right(U, V))
        if bad[0].size:
            return lo + int(bad[0][0]), int(bad[1][0])
    return None


def multiplier_is_isomorphism(
    F: Field, pair: SigmaPair, target: SigmaPair, mult: int
) -> tuple[bool, tuple[int, int] | None]:
    """Does u |-> u*mult carry Q_pair onto Q_target? Returns (ok, witness)."""
    witness = _first_mismatch(
        F.q, lambda U, V: F.vmul(mult, qmul_vec(F, pair, U, V)),
        lambda U, V: qmul_vec(F, target, F.vmul(mult, U), F.vmul(mult, V)))
    return witness is None, witness


def opposite_and_iso_checks(F: Field, pair: SigmaPair) -> OppositeIsoReport:
    """Verify u |-> u*zeta : Q_{a,b} ~ Q_{b,a}, and the opposite-quasigroup identity.

    The opposite of Q_{a,b} equals Q_{1-a,1-b} when q = 1 mod 4 and
    Q_{1-b,1-a} when q = 3 mod 4, checked elementwise.
    """
    a, b = pair
    zeta = least_nonsquare(F)
    iso_ok, iso_wit = multiplier_is_isomorphism(F, pair, SigmaPair(b, a), zeta)

    if F.q % 4 == 1:
        opp_params = SigmaPair(F.sub(1, a), F.sub(1, b))
    else:
        opp_params = SigmaPair(F.sub(1, b), F.sub(1, a))
    # entry (u, v) of Q^op is v * u in Q_{a,b}
    opp_wit = _first_mismatch(F.q, lambda U, V: qmul_vec(F, pair, V, U),
                              lambda U, V: qmul_vec(F, opp_params, U, V))
    return OppositeIsoReport(iso_ok, opp_wit is None, iso_wit, opp_wit)
