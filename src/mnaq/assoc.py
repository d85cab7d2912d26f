"""Deciding maximal nonassociativity and counting sigma(q) on the parameter side.

Four mutually cross-checking methods:

  A        full scan of all q^3 triples of the quasigroup operation;
  B        scan of the pair equation psi(psi(u)-v) = psi(-v) + psi(u-v-psi(-v))
           over all (u, v) != (0, 0);
  Bscaled  the same scan restricted to scaling representatives u in {1, zeta}
           (v free) plus u = 0, v in {1, zeta}, valid because solutions are
           closed under (u, v) |-> (c^2 u, c^2 v);
  C        the four-character rule, derived from a per-class linear solve:
           fixing the sign pattern (i, j, r, s) of (u, -v, psi(u)-v, u-v-psi(-v))
           turns the equation into A u = B v, A = c_r c_i - c_s,
           B = c_r - c_j - c_s(1 - c_j), c_* in {a, b} chosen by bit.  With
           chi(u) = s_i (s_* = +1 for bit 0, -1 for bit 1) the witness v = uA/B
           carries the class's signs exactly when chi(-1)chi(A)chi(B)s_i = s_j,
           chi(c_i B - A)chi(B)s_i = s_r and chi(B - (1 - c_j)A)chi(B)s_i = s_s:
           four characters per class and no inverse.  class_nonempty_vec applies
           the rule with numpy to blocks of pairs and is_mna_C_vec is C's verdict
           on them; where A = B = 0, the class codes along one u decide.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, product
from typing import Iterable, NamedTuple, Sized

import numpy as np

from .errors import NotInSigma, TooLarge, VerificationFailure
from .field import Field
from .pool import chunked_map
from .quasigroup import (
    SigmaPair,
    cayley_table,
    is_sigma_pair,
    least_nonsquare,
    psi,
    psi_vec,
    sigma_mask,
    sigma_rows,
)


class ClassIndex(NamedTuple):
    i: int
    j: int
    r: int
    s: int


ALL_CLASSES = tuple(map(ClassIndex._make, product((0, 1), repeat=4)))  # index 8i+4j+2r+s

A_SCAN_LIMIT = 64  # is_mna_A guard
A_COUNT_LIMIT = 27  # sigma_count(method="A") guard
B_COUNT_LIMIT = 512
BSCALED_COUNT_LIMIT = 4096
BSCALED_BLOCK = 4096  # most w per block of is_mna_Bscaled: small grids, few page faults


def assoc_eq_holds(F: Field, pair: SigmaPair, u: int, v: int) -> bool:
    """psi(psi(u)-v) == psi(-v) + psi(u-v-psi(-v)) at (u, v), the form that
    v * (0 * u) == (v * 0) * u takes in the quasigroup."""
    pnv = psi(F, pair, F.neg(v))
    lhs = psi(F, pair, F.sub(psi(F, pair, u), v))
    return lhs == F.add(pnv, psi(F, pair, F.sub(F.sub(u, v), pnv)))


def assoc_eq_terms(F: Field, P: np.ndarray, U: np.ndarray,
                   W: np.ndarray) -> tuple[np.ndarray, ...]:
    """(holds, -v, psi(u) - v, u - v - psi(-v)) over code arrays U and W = -v that
    broadcast together: holds marks psi(psi(u) - v) == psi(-v) + psi(u - v - psi(-v)),
    psi read from the table P[w] = psi(w) over all of F_q (psi_vec on F.codes).  In
    w, psi(u) - v = P[u] + w and u - v - psi(-v) = u + (w - P[w]), so the terms of v
    alone, P[w] and w - P[w], are built once on W's shape for every u."""
    U, W = np.asarray(U, dtype=np.int64), np.asarray(W, dtype=np.int64)
    psi_w = P.take(W)
    # the right side comes first, so that its temporaries are freed before e_r is
    # built: fewer grid-sized arrays alive at once, fewer page faults at large q
    e_s = F.vadd(U, F.vsub(W, psi_w))
    rhs = F.vadd(psi_w, P.take(e_s))
    e_r = F.vadd(P.take(U), W)
    return P.take(e_r) == rhs, W, e_r, e_s


def assoc_eq_grid(F: Field, pair: SigmaPair) -> np.ndarray:
    """Boolean q x q grid G[u, v] of associativity-equation solutions."""
    return assoc_eq_terms(F, psi_vec(F, pair, F.codes), F.codes[:, None], F.vneg(F.codes))[0]


def class_codes(F: Field, pair: SigmaPair, U, W) -> np.ndarray:
    """E(a, b) at (u, v) = (U, -W) for code arrays that broadcast together: the class
    code 8i+4j+2r+s at each nontrivial solution, -1 elsewhere."""
    holds, neg_v, e_r, e_s = assoc_eq_terms(F, psi_vec(F, pair, F.codes), U, W)
    holds &= (U != 0) | (neg_v != 0)
    if (holds & ((U == 0) | (neg_v == 0) | (e_r == 0) | (e_s == 0))).any():
        raise VerificationFailure(
            f"a nontrivial solution at {pair} has a vanishing classifier value")
    code = sum((F.chi_table[t] != 1).astype(np.int8) << k
               for k, t in zip((3, 2, 1, 0), (U, neg_v, e_r, e_s)))
    return np.where(holds, code, np.int8(-1))


def class_code_grid(F: Field, pair: SigmaPair) -> np.ndarray:
    """E(a, b) as a (q, q) int8 grid over (u, v): class_codes at every cell."""
    return class_codes(F, pair, F.codes[:, None], F.vneg(F.codes))


def count_associative_triples(F: Field, pair: SigmaPair, force: bool = False) -> int:
    """Number of triples with (u*v)*w == u*(v*w); q of them are u=v=w."""
    if F.q > A_SCAN_LIMIT and not force:
        raise TooLarge(f"full triple scan guarded to q <= {A_SCAN_LIMIT}")
    T = cayley_table(F, pair)
    return int((T[T, :] == T[:, T]).sum())


def is_mna_A(F: Field, pair: SigmaPair, force: bool = False) -> bool:
    """Ground-truth oracle: only the diagonal triples associate."""
    return count_associative_triples(F, pair, force=force) == F.q


def is_mna_B(F: Field, pair: SigmaPair) -> bool:
    """No (u, v) != (0, 0) satisfies the associativity equation."""
    return int(assoc_eq_grid(F, pair).sum()) == 1  # (0, 0) always holds


def is_mna_Bscaled(F: Field, pair: SigmaPair) -> bool:
    """Method B on scaling representatives only: u in {1, zeta} with v free, as
    (2, BSCALED_BLOCK) grids over blocks of w = -v, then u = 0 with v in {1, zeta}."""
    codes = F.codes
    P, U = psi_vec(F, pair, codes), np.array([[1], [least_nonsquare(F)]])
    return not (any(assoc_eq_terms(F, P, U, codes[lo:lo + BSCALED_BLOCK])[0].any()
                    for lo in range(0, F.q, BSCALED_BLOCK))
                or assoc_eq_terms(F, P, 0, F.vneg(U[:, 0]))[0].any())


# ----------------------------------------------------------------------
# Method C
# ----------------------------------------------------------------------

_MONOS = np.array([(m, n) for m in range(4) for n in range(4 - m)])  # a^m b^n


def _poly(*terms: tuple[int, ...]) -> np.ndarray:
    """Coefficients over _MONOS of the sum of the terms (sign, *bits), each sign
    times the product of the c_bit, c_0 = a and c_1 = b."""
    return sum(sign * (_MONOS == (bits.count(0), bits.count(1))).all(axis=1)
               for sign, *bits in terms).astype(np.int16)


# the distinct polynomials among A, B, c_i B - A and B - (1 - c_j) A of the classes,
# and the indices of each class's four
_C_POLYS, _C_INDEX = np.unique(np.reshape([
    [_poly((1, r, i), (-1, s)), _poly((1, r), (-1, j), (-1, s), (1, s, j)),
     _poly((1, s), (-1, i, j), (-1, i, s), (1, i, s, j)),
     _poly((1, r), (-1, j), (-1, r, i), (1, r, i, j))] for i, j, r, s in ALL_CLASSES
], (64, -1)), axis=0, return_inverse=True)


def class_nonempty_degenerate(F: Field, pair: SigmaPair, cls: ClassIndex) -> bool:
    """Is E_ij^rs(a, b) nonempty, for a class with A = B = 0?  (u, v) |-> (c^2 u, c^2 v)
    keeps solutions and their signs, so read class_codes along the u in {1, zeta}
    with chi(u) = s_i, over every v."""
    u = 1 if cls.i == 0 else least_nonsquare(F)
    return bool((class_codes(F, pair, u, F.codes) == ALL_CLASSES.index(cls)).any())


def class_nonempty_vec(F: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(16, len(a)) bool: row 8i+4j+2r+s says whether E_ij^rs(a, b) is nonempty at
    the pairs (a, b) of Sigma, by the four-character rule, each polynomial a signed
    sum of monomial columns of Field.log_digits.  Exactly one of A, B zero forces
    u = 0 or v = 0 and a zero character; class_nonempty_degenerate decides A = B = 0."""
    digits, zero, _ = F.log_digits
    log = F.logs[0]
    mono = digits.take(_MONOS[:, :1] * log[a] + _MONOS[:, 1:] * log[b])
    chis = F.chi_of_sum(zero + np.einsum("pm,mn->pn", _C_POLYS.astype(digits.dtype), mono))
    cA, cB, cX, cY = chis[_C_INDEX.reshape(16, 4).T]
    s_i, s_j, s_r, s_s = 1 - 2 * np.array(ALL_CLASSES, dtype=np.int8).T[..., None]
    holds = ((F.chi(F.neg(1)) * cA * cB * s_i == s_j) & (cX * cB * s_i == s_r)
             & (cY * cB * s_i == s_s))
    for c, k in zip(*np.divmod(np.flatnonzero((cA == 0) & (cB == 0)), len(a))):
        holds[c, k] = class_nonempty_degenerate(
            F, SigmaPair(int(a[k]), int(b[k])), ALL_CLASSES[c])
    return holds


def is_mna_C_vec(F: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Method C's verdict on the pairs (a, b) of Sigma: no class E_ij^rs is nonempty."""
    return ~class_nonempty_vec(F, a, b).any(axis=0)


def is_mna_C(F: Field, pair: SigmaPair) -> bool:
    """Method C at one pair of Sigma: the one-pair view of is_mna_C_vec."""
    if not is_sigma_pair(F, *pair):
        raise NotInSigma(f"{tuple(pair)} is not in Sigma(F_{F.q})")
    return bool(is_mna_C_vec(F, *np.array([pair]).T)[0])


# ----------------------------------------------------------------------
# sigma(q)
# ----------------------------------------------------------------------

PAIR_BLOCK = 2048  # pairs per block of sigma_count (about a quarter of its a-rows' cells)


def _pair_by_pair(decide):
    """A decision on a block (F, a, b) from a decision on one pair (F, pair)."""
    return lambda F, a, b: [decide(F, SigmaPair(*p)) for p in zip(a.tolist(), b.tolist())]


# method -> (size guard of sigma_count, None for none; decision on a block (F, a, b)).
# A_COUNT_LIMIT <= A_SCAN_LIMIT, so a count within its guard, or forced, needs no other.
_METHODS = {
    "A": (A_COUNT_LIMIT, _pair_by_pair(partial(is_mna_A, force=True))),
    "B": (B_COUNT_LIMIT, _pair_by_pair(is_mna_B)),
    "Bscaled": (BSCALED_COUNT_LIMIT, _pair_by_pair(is_mna_Bscaled)),
    "C": (None, is_mna_C_vec),
}


def _count_chunk(F: Field, method: str, rows: bool, items: np.ndarray) -> int:
    """MNA pairs of a chunk of Sigma's a-rows (rows) or of pairs, block by block."""
    step = max(1, 4 * PAIR_BLOCK // F.q) if rows else PAIR_BLOCK
    blocks = (sigma_rows(F, items[s:s + step]) if rows else items[s:s + step].T
              for s in range(0, len(items), step))
    return sum(int(np.count_nonzero(_METHODS[method][1](F, a, b))) for a, b in blocks)


def sigma_count(
    F: Field,
    method: str = "C",
    jobs: int = 1,
    force: bool = False,
    pairs: Iterable[SigmaPair] | np.ndarray | None = None,
) -> int:
    """Number of (a, b) in Sigma whose quasigroup is maximally nonassociative, over
    all of Sigma or over pairs (SigmaPairs, or an (n, 2) array of codes)."""
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    guard = _METHODS[method][0]
    if guard is not None and F.q > guard and not force:
        raise TooLarge(f"method {method} guarded to q <= {guard}")
    if pairs is None:
        items = np.arange(2, F.q, dtype=np.int64)
    elif isinstance(pairs, np.ndarray) and pairs.shape[1:] != (2,):
        raise NotInSigma(f"an array of shape {pairs.shape} is not an (n, 2) array of pairs")
    else:
        if not isinstance(pairs, np.ndarray):
            pairs = list(pairs)  # may be read twice
            try:
                bad = set(map(len, pairs)) - {2}
            except TypeError:  # an item without a length, such as 7 or None
                bad = True
            if bad:
                bad = next(p for p in pairs if not isinstance(p, Sized) or len(p) != 2)
                named = tuple(bad) if isinstance(bad, Sized) else bad
                raise NotInSigma(f"{named} is not a pair (a, b), so not in Sigma(F_{F.q})")
        try:
            items = (pairs if isinstance(pairs, np.ndarray) else
                     np.fromiter(chain.from_iterable(pairs), np.int64).reshape(-1, 2))
        except OverflowError:  # such a code is outside Sigma, as sigma_mask answers
            bad = [tuple(p) for p in pairs if not sigma_mask(F, *p)]
        else:
            bad = [tuple(items[i].tolist()) for i in np.flatnonzero(~sigma_mask(F, *items.T))[:1]]
        if bad:
            raise NotInSigma(f"{bad[0]} is not in Sigma(F_{F.q})")
    return sum(chunked_map(_count_chunk, (F, method, pairs is None), items, jobs))
