"""Square-pair-side classification and the O(q^2) exact sigma counter.

Membership of (x, y) in a class S_ij^rs is decided purely from quadratic
characters of the polynomial family weil.SLICE_POLYS: class_masks holds the
rules (one set per residue of q mod 4) as a function of those signs alone.
pair_signs reads those signs at any pairs from the tables D reads; slice_eval
applies the rules to a whole slice y = c, s_class_member to one pair and t_grid to
every pair, sigma_count_D to blocks of lines x = λy, and reports.limit_constant to
every sign vector, so checking membership checks the counting code.
The slices also feed the T-partition bookkeeping and the per-slice counters with
their stated bounds.

T is closed under the swap (x, y) -> (y, x), the inversion (x, y) -> (1/x, 1/y) and
(x, y) -> (x^p, y^p), so sigma_count_D scans about 1/(4k) of the pairs on F_{p^k}.

On a line x = λy each sign is a window of chi(1 + g^e): an entry's monomials
x^i y^j take at most two total degrees, so it is y^d (A(λ) y + B(λ)), and on a
square y its chi is chi(B) chi(1 + (A/B) y) (LINE_COEFFS).  D reads it from a parity
row of _sign_tile packed as one bit plane (Signs: set where the sign is -1), 64 y a
word; pair_signs reads it pair by pair.  A sign is 0 only where A y + B = 0, at most
one y per sign and line, so D counts those few pairs apart, from the int8 tile.

Pairs violating the regularity condition
  [y+1-x != 0 or x^2-x-1 != 0] and [x+1-y != 0 or y^2-y-1 != 0]
(at most four per field) need no rule of their own: they lie in the union.
At such a pair xy = 1, and either x - y = 1, 1 - y = y^2 and 1 - x = -y, or
x - y = -1, 1 - x = x^2 and 1 - y = -x.  As x and y are squares, this fixes
chi(x - y), chi(1 - x) and chi(1 - y), and the fixed values meet the rule of
class (0,0,0,0) when q = 1 mod 4 and of class (0,1,1,0) when q = 3 mod 4.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .assoc import ALL_CLASSES
from .errors import BadSliceParam, IrregularPair, NotInS, TooLarge, VerificationFailure
from .field import SUM_TERMS, Field, read_only
from .pool import chunked_map
from .quasigroup import CAYLEY_LIMIT, SPair, is_s_pair, square_codes
from .weil import SLICE_POLYS, slice_param_admissible, slice_param_ok

# words (lines x nw) per sign in a block of sigma_count_D; of 1280, 1920, 2560 and 3840,
# 2560 ran D at 10007 and 10009 fastest (1.2x 1280) for 0.4% more peak RSS than 1280
BLOCK_WORDS = 2560
LINE_ROWS = 1 << 8  # lines per evaluation of their polynomials in _line_signs
ZERO_LINES = 1 << 9  # lines (rounded to whole blocks) per piece of _d_chunk's zero signs
# the signs the class rules read: chi of each SLICE_POLYS entry but the first
# (chi(x) = 1 on squares), and chi(1 - y)
CHAR_NAMES = (*list(SLICE_POLYS)[1:], "1-y")


def _line_coeffs() -> np.ndarray:
    """(3, 2, 15): [i, 0, n] and [i, 1, n] are the λ^i coefficients of B and A, where P(λy, y)
    = y^d (A(λ) y + B(λ)) for P = CHAR_NAMES[n]: B and A group P's monomials x^i y^j by total
    degree i + j, two consecutive values at most, each a code_of_sum of at most SUM_TERMS ±λ^i."""
    out = np.zeros((3, 2, len(CHAR_NAMES)), dtype=np.int64)
    for n, poly in enumerate([*list(SLICE_POLYS.values())[1:], ((1, -1),)]):
        terms = [(i, i + j, a) for i, row in enumerate(poly) for j, a in enumerate(row) if a]
        low = min(d for _, d, _ in terms)
        for i, d, a in terms:
            if d > low + 1:
                raise VerificationFailure(f"{CHAR_NAMES[n]} spans more than two total degrees")
            out[i, d - low, n] += a
    if (over := np.abs(out).sum(axis=0).max(axis=0) > SUM_TERMS).any():
        raise VerificationFailure(f"{CHAR_NAMES[over.argmax()]} adds more than SUM_TERMS powers")
    return out


LINE_COEFFS = _line_coeffs()


def _irregular_xs(F: Field, y: int) -> list[int]:
    """The x for which (x, y) violates the regularity condition: x = y + 1 when
    y^2 + y - 1 = 0 (then x^2 - x - 1 = 0) and x = y - 1 when y^2 - y - 1 = 0."""
    yy = F.mul(y, y)
    out = []
    if F.sub(F.add(yy, y), 1) == 0:
        out.append(F.add(y, 1))
    if F.sub(F.sub(yy, y), 1) == 0:
        out.append(F.sub(y, 1))
    return out


def is_regular_pair(F: Field, x: int, y: int) -> bool:
    """The regularity condition required by the class membership rules."""
    return x not in _irregular_xs(F, y)


def exceptional_pairs(F: Field) -> list[SPair]:
    """Members of S violating is_regular_pair; at most four per field."""
    return [SPair(x, y) for y in range(2, F.q) for x in _irregular_xs(F, y)
            if is_s_pair(F, x, y)]


def s_class_member(F: Field, sp: SPair, cls: tuple[int, int, int, int]) -> bool:
    """Membership of sp in S_ij^rs: the class rules at the signs of sp."""
    x, y = sp
    if cls not in ALL_CLASSES:
        raise ValueError(f"{cls} is not a class (i, j, r, s) of bits")
    if not is_s_pair(F, x, y):
        raise NotInS(f"({x}, {y}) is not in S(F_{F.q})")
    if not is_regular_pair(F, x, y):
        raise IrregularPair(f"({x}, {y}) violates the regularity condition")
    return bool(class_masks(F.q % 4, pair_signs(F, x, y))[ALL_CLASSES.index(cls)])


# ----------------------------------------------------------------------
# Vectorized y = c slices
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SliceEval:
    """One y = c slice of S: its class masks, T mask and the characters they read."""

    xs: np.ndarray          # x values of the slice (squares outside {0,1,c})
    classes: np.ndarray     # shape (16, len(xs)): row 8i+4j+2r+s marks S_ij^rs
    t_mask: np.ndarray      # True where (x, c) is in no class
    chars: dict[str, np.ndarray]  # the signs of CHAR_NAMES at (xs, c)


def _sign_tile(F: Field) -> np.ndarray:
    """C[e] = chi(1 + g^e) for e in [0, 2(q - 1)), then -C, then runs of q + 1 zeros, ones
    and minus ones (7q - 1 entries, an even count): each sign a line reads is one entry."""
    C = np.tile(F.chi_one_minus[np.roll(F.logs[1], (F.q - 1) // 2)], 2)  # 1 - g^(e + (q-1)/2)
    return np.concatenate([C, -C, np.repeat(np.array([0, 1, -1], dtype=np.int8), F.q + 1)])


def _line_signs(F: Field, e: np.ndarray) -> np.ndarray:
    """Offsets, int32 (15, e.size): the CHAR_NAMES signs at (g^e y, y), e < q - 1 and y a
    nonzero square, are _sign_tile(F)[off + log y]: chi(B) C[log(A/B) + log y] for LINE_COEFFS'
    A and B (sums of the log_digits rows of λ^i), or chi(B), chi(A) or 0 where A, B vanish."""
    if e.size > LINE_ROWS:  # in pieces, so that the temporaries stay small
        return np.hstack([_line_signs(F, e[s:s + LINE_ROWS]) for s in range(0, e.size, LINE_ROWS)])
    (rows, zero, _), N = F.log_digits, F.q - 1
    sums = zero + np.tensordot(LINE_COEFFS, rows[np.multiply.outer(np.arange(3), e)], (0, 0))
    lB, lA = F.logs[0][F.code_of_sum(sums)]
    zB, zA = lB < 0, lA < 0  # log 0 = -1
    # chi(g^l) = (-1)^l picks C or -C, and for a constant the run of 1 or -1 (or 0)
    const = 4 * N + (F.q + 1) * np.where(zA & zB, 0, 1 + (np.where(zB, lA, lB) & 1))
    return np.where(zA | zB, const, (lA - lB + N) % N + 2 * N * (lB & 1)).astype(np.int32)


@functools.lru_cache(maxsize=1)
def _line_table(F: Field) -> tuple[np.ndarray, np.ndarray]:
    """(_sign_tile(F), _line_signs at every e < q - 1), read-only, for pair_signs."""
    return read_only(_sign_tile(F), _line_signs(F, np.arange(F.q - 1)))


def pair_signs(F: Field, x, y) -> dict[str, np.ndarray]:
    """The CHAR_NAMES signs at the pairs (x, y), read on their lines x = (x/y) y: codes
    that broadcast together, x nonzero and y a nonzero square."""
    tile, off = _line_table(F)
    log = F.logs[0]
    return dict(zip(CHAR_NAMES, tile[off[:, (log[x] - log[y]) % (F.q - 1)] + log[y]]))


def slice_eval(F: Field, c: int) -> SliceEval:
    """Evaluate every class rule on the slice y = c at the squares outside {0, 1, c};
    c a nonzero square."""
    if not 0 < c < F.q or F.chi_table[c] != 1:
        raise ValueError("slice_eval takes a nonzero square c")
    xs = square_codes(F)
    X = xs[xs != c]
    chars = pair_signs(F, X, c)
    m = class_masks(F.q % 4, chars)
    return SliceEval(xs=X, classes=m, t_mask=~m.any(axis=0), chars=chars)


class Signs(NamedTuple):
    """Nonzero signs as one bit plane neg (set where the sign is -1), with the sign
    operations of class_masks; a comparison gives the words of its mask."""
    neg: np.ndarray
    shape = property(lambda self: self.neg.shape)

    def __neg__(self) -> Signs:
        return Signs(~self.neg)

    def __mul__(self, other: Signs) -> Signs:
        return Signs(self.neg ^ other.neg)

    def __eq__(self, other) -> np.ndarray:
        if isinstance(other, Signs):
            return ~(self.neg ^ other.neg)
        if other == 0:
            return np.zeros_like(self.neg)
        return self.neg if (1, -1).index(other) else ~self.neg

    def __ne__(self, other) -> np.ndarray:
        return ~(self == other)


def class_masks(mod4: int, chars: dict[str, np.ndarray | Signs]) -> np.ndarray:
    """The sixteen class masks, shape (16, ...): row 8i+4j+2r+s marks S_ij^rs.

    chars maps CHAR_NAMES to int8 sign arrays that broadcast together (bool masks) or
    to Signs (uint64 masks; no sign is 0 there), at pairs of squares (x, y) of a field
    of order q = mod4 mod 4; nothing else is read."""
    (xm1, eps, xm1my, xp1my, xmxymy, xpxymy, g1, g2, g3, g4, f1, f2, f3, f4, c1y) = (
        chars[k] for k in CHAR_NAMES)
    # the mirrored forms differ from the listed ones by chi(-1):
    # 1 - x; y + 1 - x, y - 1 - x; y + xy - x, y - xy - x
    c1x, yp1mx, ym1mx, ypxymx, ymxymx = (v if mod4 == 1 else -v
                                         for v in (xm1, xm1my, xp1my, xmxymy, xpxymy))

    m = np.zeros((16, *np.broadcast_shapes(*(v.shape for v in chars.values()))),
                 dtype=(eps == 1).dtype)  # bool on int8 signs, words on Signs
    if mod4 == 1:
        # the six (i, j) mixed classes not set here are empty
        m[0] = m[15] = (c1x == eps) & (c1y == eps)
        m[12] = (f1 == -eps) & (f2 == -eps)
        m[3] = (f3 == -eps) & (f4 == -eps)
        m[13] = (c1x == -eps) & (yp1mx == 1) & (f1 == eps)
        m[14] = (c1y == -eps) & (xp1my == 1) & (f2 == eps)
        m[2] = (c1x == -eps) & (xpxymy == 1) & (f3 == eps)
        m[1] = (c1y == -eps) & (ypxymx == 1) & (f4 == eps)
        eta = yp1mx
        m[5] = (eta != 0) & (ypxymx == -eta) & (g1 == -eta * eps) & (g4 == eta * eps)
        eta = xp1my
        m[10] = (eta != 0) & (xpxymy == -eta) & (g2 == -eta * eps) & (g3 == eta * eps)
    else:
        # (0,0,0,0), (0,0,1,1), (1,1,0,0), (1,1,1,1) are empty
        nd = -eps  # chi(y - x)
        m[6] = m[9] = (c1y * eps == 1) & (c1x * nd == 1)
        m[4] = (c1x * eps == 1) & (g1 * nd == 1)
        m[8] = (c1y * nd == 1) & (g2 * eps == 1)
        m[11] = (c1x * eps == 1) & (g3 * eps == 1)
        m[7] = (c1y * nd == 1) & (g4 * nd == 1)
        m[13] = (c1x * eps == 1) & (xm1my == 1) & (eps * f1 == 1)
        m[14] = (c1y * nd == 1) & (ym1mx == 1) & (nd * f2 == 1)
        m[2] = (c1x * eps == 1) & (ymxymx == 1) & (eps * f3 == 1)
        m[1] = (c1y * nd == 1) & (xmxymy == 1) & (nd * f4 == 1)
        m[5] = (xmxymy * xm1my == 1) & (g1 * nd * xm1my == 1) & (g4 * nd * xm1my == 1)
        m[10] = (ymxymx * ym1mx == 1) & (g2 * eps * ym1mx == 1) & (g3 * eps * ym1mx == 1)
    return m


def _class_map(f) -> np.ndarray:
    """The map f on (i, j, r, s) as an int8 table over the class codes 8i+4j+2r+s;
    entry 16 is -1, so indexing the table by a code grid keeps -1 at non-solutions."""
    return np.array([8 * i + 4 * j + 2 * r + s for i, j, r, s in map(f, ALL_CLASSES)]
                    + [-1], dtype=np.int8)


SWAP = _class_map(lambda c: (c.j, c.i, c.s, c.r))
COMPLEMENT = _class_map(lambda c: tuple(1 - bit for bit in c))
HALVES = _class_map(lambda c: (c.r, c.s, c.i, c.j))


def orbit_lines(F: Field) -> np.ndarray:
    """(m, n) rows, read-only: the line x = g^(2m) y of each orbit of m -> -m, m -> pm mod
    (q - 1)/2 (λ -> 1/λ, λ -> λ^p on squares λ != 0, 1), m its least of n, ascending."""
    M = (F.q - 1) // 2
    m = np.arange(1, M)
    lead = np.min([s * m * pow(F.p, j, M) % M for s in (1, -1) for j in range(F.k)], axis=0)
    n = np.bincount(lead, minlength=M)
    return read_only(np.column_stack([np.flatnonzero(n), n[n > 0]]))[0]


def _zero_columns(F: Field, off: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(line, k), sorted by line, of each column k < width at which some sign
    _sign_tile(F)[off[:, line] + 2k] is 0.  C[e] = chi(1 + g^e) is 0 only at e = M mod N,
    so an off below 4N reads a 0 at k = ((M - off) mod N) / 2 at most.  No line D scans
    reads the run of zeros: A = B = 0 only for x - y at λ = 1."""
    N, M = F.q - 1, (F.q - 1) // 2
    k = (M - off) % N
    i = np.flatnonzero((k < 2 * width) & (k % 2 == 0) & (off < 4 * N))  # sign * lines + line
    codes = np.sort(i % off.shape[1] * width + k.ravel()[i] // 2)
    return np.divmod(codes[np.diff(codes, prepend=-1) > 0], width)  # np.unique hashes, slower


def _d_chunk(F: Field, tile: np.ndarray, copies: np.ndarray, lines: np.ndarray) -> int:
    M, width = (F.q - 1) // 2, (F.q + 3) // 4  # width: the y a line scans, (q - 1)//4 + 1
    m, n = lines.T
    # y = g^(2k) for k in [start, start + width); k -> r - k (the swap after the inversion)
    # gives the other y, and x = 1 at k = r.  A k weighs 2, a fixed point 2k = r mod M 1,
    # the last column 0 when M is even and r odd; cut is 2 minus the first and last weights
    r = M - m
    start = (r + 1) // 2
    cut = np.column_stack([1 - r % 2, r % 2 + 1 - M % 2])
    off = _line_signs(F, 2 * m) + (2 * start).astype(np.int32)
    # the signs at off are tile[off::2][:width], the first width bits of a window of nw
    # words of one parity row; valid clears the bits past width
    nw = -(-width // 64)
    windows = sliding_window_view(copies, 8 * nw, axis=-1)
    valid = np.full(nw, ~np.uint64(0))
    valid[-1] >>= 64 * nw - width
    rows = max(1, BLOCK_WORDS // nw)
    piece = rows * max(1, ZERO_LINES // rows)
    total = 0
    for p in range(0, len(lines), piece):
        # the few pairs with a 0 among their signs, x = 1 among them (chi(x - 1) = 0), leave
        # the word path: they are counted here from the int8 signs, a piece of whole blocks
        # at a time so that the index arrays stay small, and their bits cleared from T
        l, k = _zero_columns(F, off[:, p:p + piece], width)
        l += p
        at = off[:, l]
        at += 2 * k.astype(np.int32)
        in_t = ~class_masks(F.q % 4, dict(zip(CHAR_NAMES, tile[at]))).any(axis=0)
        weight = n[l] * (2 - cut[l, 0] * (k == 0) - cut[l, 1] * (k == width - 1))
        total += int(weight @ (in_t & (k != r[l] - start[l])))  # x = 1 is not in T
        ends = np.searchsorted(l, np.arange(p, p + piece + rows, rows))
        zero_bits = ~(np.uint64(1) << (k & 63).astype(np.uint64))
        for i, s in enumerate(range(p, min(p + piece, len(lines)), rows)):
            b, z = slice(s, s + rows), slice(ends[i], ends[i + 1])
            half, odd = np.divmod(off[:, b], 2)
            signs = map(Signs, windows[odd, half & 7, half >> 3].view("<u8"))
            t = ~np.bitwise_or.reduce(class_masks(F.q % 4, dict(zip(CHAR_NAMES, signs)))) & valid
            np.bitwise_and.at(t, (l[z] - s, k[z] >> 6), zero_bits[z])
            edge = (t[:, [0, -1]] >> np.uint64([0, (width - 1) % 64]) & 1).astype(np.int64)
            count = (2 * np.bitwise_count(t).sum(axis=1, dtype=np.int64)
                     - (edge * cut[b]).sum(axis=1))
            total += int(n[b] @ count)
    return total


def sigma_count_D(F: Field, jobs: int = 1) -> int:
    """sigma(q) = |T|, scanning one line x = λy per orbit of λ -> 1/λ and λ -> λ^p.

    T is closed under (x, y) -> (y, x), (1/x, 1/y) and (x^p, y^p) (each class_masks sign is
    chi of a polynomial with integer coefficients), which send the line of λ to those of
    1/λ, 1/λ and λ^p, so a line weighs the n of its orbit; the first two together keep
    the line and send y to 1/x, so a line scans half its y, each twice, a fixed y once.

    _sign_tile's parity rows are packed here, once, for forked workers to inherit with the
    tile: the plane == -1 in 8 copies, bit j of copy s holding sign j + s (7q bytes), so
    nw '<u8' words at [parity, h % 8, h // 8] hold signs h, h + 1, ..."""
    tile = _sign_tile(F)
    rows = tile.reshape(-1, 2).T
    neg = np.zeros((2, 8 * (rows.shape[1] // 8 + 10)), dtype=bool)  # a window may
    neg[:, :rows.shape[1]] = rows == -1  # reach 63 signs past its row
    packed = np.packbits(neg, axis=-1, bitorder="little")[:, None]
    s = np.arange(8, dtype=np.uint8)[:, None]
    copies = (packed[..., :-1] >> s) | (packed[..., 1:] << (8 - s))
    return sum(chunked_map(_d_chunk, (F, tile, copies), orbit_lines(F), jobs))


def slice_params(F: Field) -> list[int]:
    """The c slice_counters accepts, ascending; (q - 3)/4 of them when q = 3 mod 4."""
    return np.flatnonzero(slice_param_ok(F, F.codes)).tolist()


# ----------------------------------------------------------------------
# T partition bookkeeping
# ----------------------------------------------------------------------

@dataclass
class TPartitionReport:
    total: int
    parts: dict[str, int]
    r_counts: dict[tuple[int, int, int, int], tuple[int, int, int]] | None
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def t_pieces(mod4: int, t, chars: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The pieces of the T partition, elementwise on slice vectors or (q, q) grids.

    chars holds the CHAR_NAMES signs class_masks reads ("x-1", "x-y", "1-y" and
    f1..f4 are used).  For q = 1 mod 4, "rho" holds the code
    8*b1 + 4*b2 + 2*b3 + b4 (b_j = [eps * chi(f_j) = +1], eps = chi(x - y)) on T
    where no f_j vanishes, and -1 elsewhere.
    """
    eps, chi_1my = chars["x-y"], chars["1-y"]
    chi_1mx = chars["x-1"] if mod4 == 1 else -chars["x-1"]  # chi(-1) chi(x - 1)
    if mod4 == 3:
        t0 = t & (eps == -1)  # chi(y - x) = 1
        t0p = t & (eps == 1)
        both1 = (chi_1mx == 1) & (chi_1my == 1)
        bothm = (chi_1mx == -1) & (chi_1my == -1)
        x_m_y_p = (chi_1mx == -1) & (chi_1my == 1)
        x_p_y_m = (chi_1mx == 1) & (chi_1my == -1)
        return {
            "t0": t0, "t0p": t0p,
            "t11": t0 & both1, "t1m1": t0 & bothm, "t2": t0 & x_m_y_p,
            "t11p": t0p & both1, "t1m1p": t0p & bothm, "t2p": t0p & x_p_y_m,
            "forbidden": t0 & x_p_y_m, "forbiddenp": t0p & x_m_y_p,
        }
    rho = eps * np.stack([chars[f"f{j}"] for j in range(1, 5)])
    code = 8 * (rho[0] > 0) + 4 * (rho[1] > 0) + 2 * (rho[2] > 0) + (rho[3] > 0)
    return {
        "t1": t & (chi_1mx == -eps) & (chi_1my == -eps),
        "t2": t & (chi_1mx == eps) & (chi_1my == -eps),
        "t2p": t & (chi_1mx == -eps) & (chi_1my == eps),
        "forbidden": t & (chi_1mx == eps) & (chi_1my == eps),
        "rho": np.where(t & (rho != 0).all(axis=0), code, -1),
    }


def t_partition(F: Field) -> TPartitionReport:
    """Materialize the residue-appropriate partition of T with its identities."""
    xs = square_codes(F)
    mod4 = F.q % 4
    empty = np.zeros(0, dtype=np.int8)  # t_pieces of an empty slice names the parts
    acc = {key: 0 for key in t_pieces(mod4, empty.astype(bool), dict.fromkeys(CHAR_NAMES, empty))
           if key != "rho"}
    total = 0
    r = np.zeros((3, 16), dtype=np.int64)  # R(rho) on T, on T1 and on T2
    for c in map(int, xs):
        ev = slice_eval(F, c)
        total += int(ev.t_mask.sum())
        pieces = t_pieces(mod4, ev.t_mask, ev.chars)
        for key in acc:
            acc[key] += int(pieces[key].sum())
        if mod4 == 1:
            rho = pieces["rho"]
            for row, mask in enumerate((True, pieces["t1"], pieces["t2"])):
                r[row] += np.bincount(rho[mask & (rho >= 0)], minlength=16)

    if mod4 == 3:
        r_counts, checks = None, [
            (acc["t0"] + acc["t0p"] == total, "T0 and T0' do not partition T"),
            (not (acc["forbidden"] or acc["forbiddenp"]),
             "forbidden sign combination present in T0/T0'"),
            (acc["t11"] + acc["t1m1"] + acc["t2"] == acc["t0"], "T0 parts do not sum"),
            (acc["t11p"] + acc["t1m1p"] + acc["t2p"] == acc["t0p"], "T0' parts do not sum"),
            (acc["t11"] == acc["t11p"] == acc["t1m1"] == acc["t1m1p"],
             "|T11| = |T11'| = |T1m1| = |T1m1'| fails"),
            (acc["t2"] == acc["t2p"], "|T2| != |T2'|"),
        ]
    else:
        # R(rho) has the code of its bits b_j = (rho_j + 1)/2, so its trailing or leading
        # pair is (-1,-1) where code & 3 or code & 12 is 0; the swap sends R(s1,s2,s3,s4)
        # to R(s2,s1,s4,s3) and the inversion to R(s3,s4,s1,s2)
        rhos = [tuple(2 * bit - 1 for bit in cls) for cls in ALL_CLASSES]
        r_counts = {rho: tuple(r[:, c].tolist()) for c, rho in enumerate(rhos)}
        checks = [
            (acc["t1"] + acc["t2"] + acc["t2p"] == total, "T1, T2, T2' do not partition T"),
            (not acc["forbidden"], "forbidden sign combination present in T"),
            (acc["t2"] == acc["t2p"], "|T2| != |T2'|"),
            (acc["t1"] + 2 * acc["t2"] == total, "|T| != |T1| + 2|T2|"),
            *((c & bits or not r[0, c], f"R{rho} with {end} (-1,-1) nonempty")
              for c, rho in enumerate(rhos) for bits, end in ((3, "trailing"), (12, "leading"))),
            *((r[1, c] == r[1, SWAP[c]], f"|R1{rho}| != |R1{rhos[SWAP[c]]}|")
              for c, rho in enumerate(rhos)),
            *(((r[1:, c] == r[1:, HALVES[c]]).all(), f"|Ri{rho}| != |Ri{rhos[HALVES[c]]}|")
              for c, rho in enumerate(rhos)),
        ]
    return TPartitionReport(total, acc, r_counts,
                            [msg for holds, msg in checks if not holds])


# ----------------------------------------------------------------------
# Slice counters with their stated bounds
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SliceBound:
    count: int
    target: float
    radius: float

    @property
    def ok(self) -> bool:
        return abs(self.count - self.target) <= self.radius


@dataclass(frozen=True)
class SliceCounts:
    q: int
    c: int
    mod4: int
    counts: dict[str, int]
    admissible: bool
    bounds: dict[str, SliceBound] | None

    @property
    def bounds_ok(self) -> bool:
        return self.bounds is None or all(b.ok for b in self.bounds.values())


def slice_counters(F: Field, c: int) -> SliceCounts:
    """Exact slice counts at y = c; bounds attached when c is admissible."""
    if not (0 <= c < F.q and slice_param_ok(F, c)):
        raise BadSliceParam(f"c={c} must be a square outside {{0, 1}}, "
                            "with chi(1-c) = 1 when q = 3 mod 4")
    mod4 = F.q % 4
    q = F.q
    rq = math.sqrt(q)
    ev = slice_eval(F, c)
    pieces = t_pieces(mod4, ev.t_mask, ev.chars)
    if mod4 == 3:
        targets = {
            "t2": (25 * q / 2**15, (rq + 1) * 165 / 2 + 21),
            "t11": (25 * q / 2**11, 96 * (rq + 1) + 21),
        }
    else:
        targets = {
            "t1": (169 * q / 2**14, (rq + 1) * 1161 / 2 + 21),
            "t2": (49 * q / 2**11, (rq + 1) * 4455 / 2 + 21),
        }
    counts = {key: int(pieces[key].sum()) for key in targets}
    admissible = slice_param_admissible(F, c)[0]
    bounds = None
    if admissible:
        bounds = {key: SliceBound(counts[key], *tr) for key, tr in targets.items()}
    return SliceCounts(q, c, mod4, counts, admissible, bounds)


def t_grid(F: Field) -> np.ndarray:
    """Boolean (q, q) grid of T over (x, y) codes; for symmetry checks."""
    if F.q > CAYLEY_LIMIT:
        raise TooLarge(f"T grids are materialized only for q <= {CAYLEY_LIMIT}")
    xs = square_codes(F)
    X, Y = xs[:, None], xs[None, :]
    grid = np.zeros((F.q, F.q), dtype=bool)
    grid[np.ix_(xs, xs)] = ~class_masks(F.q % 4, pair_signs(F, X, Y)).any(axis=0) & (X != Y)
    return grid
