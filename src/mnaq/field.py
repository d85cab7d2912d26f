"""Finite fields F_q for odd prime powers q, with a precomputed quadratic character.

Elements are represented by integer codes in [0, q).  For prime q the code is
the least nonnegative residue.  For q = p^k the element sum(c_i t^i) modulo the
field's irreducible polynomial is encoded as sum(c_i p^i) with 0 <= c_i < p,
so codes are stable across runs as long as the modulus is.  The modulus is the
first monic polynomial of degree k over F_p, coefficients compared constant term
first, that trial division by every monic polynomial of degree <= k/2 leaves
whole, which makes element codes reproducible across implementations.

An extension field has one addition rule: add, neg, sub and their vector forms
run one base-p digitwise routine, on codes and int64 arrays alike.  Beside it,
the only multiply is through log/antilog tables keyed to the least multiplicative
generator g by code, built with the field from one k x k matrix over F_p,
"multiply by g".  The quadratic character chi maps nonzero squares to +1,
nonsquares to -1 and 0 to 0; on an extension field it is the parity of the log.
A prime field adds codes in [0, q) with one conditional subtraction of q, multiplies
by %, marks chi at u*u for every nonzero u, and builds its log tables on first use.
Method C's characters and method D's line coefficients add powers of g as Field.log_digits
rows: on an extension field, k base-p digits packed in one int64 that add without a carry,
read as codes by one lookup per group of digits.  gfpoly's kernels add Field.lifts, the same
digits in Python ints.  No other module reads a code as base-p digits.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Callable, Iterator

import numpy as np

from .errors import DivisionByZero, NotOddPrimePower, TooLarge

MAX_FIELD_ORDER = 1 << 20  # tables are O(q) and the counters are O(q^2)


def prime_factors(n: int) -> Iterator[int]:
    """The prime factors of n >= 1 with multiplicity, ascending, by trial division;
    each is yielded as soon as it is found."""
    d = 2
    while d * d <= n:
        while n % d == 0:
            yield d
            n //= d
        d += 1
    if n > 1:
        yield n


def power(x, n: int, mul: Callable, one):
    """x^n under the associative product mul, with x^0 = one, by square-and-multiply;
    x is squared only while bits of n remain.  A negative n raises ValueError."""
    if n < 0:
        raise ValueError(f"negative exponent {n}")
    out = one
    while n:
        if n & 1:
            out = mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return out


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p^k, or raise NotOddPrimePower."""
    if q < 3 or q % 2 == 0:
        raise NotOddPrimePower(f"q must be an odd prime power >= 3, got {q}")
    p = next(prime_factors(q))  # the least prime factor: no trial division past it
    k = 1
    while p**k < q:
        k += 1
    if p**k != q:
        raise NotOddPrimePower(f"{q} is not a prime power")
    return p, k


def least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """The least monic irreducible of degree k over F_p, coefficients compared constant
    term first: the first candidate that no monic polynomial of degree <= k/2 divides."""
    if k == 1:
        return (0, 1)
    # t divides no candidate, so neither does a divisor with a zero constant term;
    # a divisor is listed by its low coefficients, highest degree first
    divisors = [low[::-1] for d in range(1, k // 2 + 1)
                for low in product(range(1, p), *[range(p)] * (d - 1))]
    for cand in product(range(1, p), *[range(p)] * (k - 1)):  # constant term first
        top = cand[::-1]
        for low in divisors:
            d = len(low)
            r = [1, *top]
            for i in range(k + 1 - d):  # synthetic division; r[i] is a quotient digit
                lead = r[i] % p
                for j in range(d):
                    r[i + 1 + j] -= lead * low[j]
            if not any(c % p for c in r[k + 1 - d:]):
                break
        else:
            return (*cand, 1)
    raise RuntimeError(f"no irreducible of degree {k} over F_{p}")  # unreachable


def read_only(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    """The tables, each made read-only in place."""
    for t in tables:
        t.setflags(write=False)
    return tables


LOG_BLOCK = 1024  # digit rows per step of the antilog fill
LOG_DIGIT_TILES = 3  # copies of the antilog in Field.log_digits: the largest degree
SUM_TERMS = 4  # columns of log_digits a sum read by Field.code_of_sum may add up
LIFT_ROWS = 64  # rows of products gfpoly adds to a sum of Field.lifts between read-backs


def packed_bits(p: int) -> int:
    """Bits per base-p digit in Field.log_digits: room for [0, 2*SUM_TERMS*(p-1)]."""
    return (2 * SUM_TERMS * (p - 1)).bit_length()


class Field:
    """Immutable arithmetic context for F_q; shareable across workers."""

    def __init__(self, q: int, p: int, k: int, modulus: tuple[int, ...]) -> None:
        self.q = q
        self.p = p
        self.k = k
        self.modulus = modulus
        self._places = tuple(p**i for i in range(k))  # place values of the digits
        self.chi_table, self.sqrt_table = read_only(*self._build_chi())

    def __reduce__(self):
        # a worker rebuilds the tables, so a pickled field stays small
        return Field, (self.q, self.p, self.k, self.modulus)

    # -- construction helpers ------------------------------------------------

    def _build_chi(self) -> tuple[np.ndarray, np.ndarray]:
        q = self.q
        antilog = self.logs[1] if self.k > 1 else None  # first: a lower peak memory
        chi = np.full(q, -1, dtype=np.int8)
        chi[0] = 0
        sqrt = np.zeros(q, dtype=np.int64)
        if self.k == 1:
            u = np.arange(1, q, dtype=np.int64)
            sq = (u * u) % q
            chi[sq] = 1
            # duplicate-index assignment keeps the last write, so feed the
            # roots largest-first and the least root wins
            sqrt[sq[::-1]] = u[::-1]
        else:
            half = (q - 1) // 2
            chi[antilog[::2]] = 1
            # the roots of g^(2e) are g^e and g^(e+(q-1)/2)
            sqrt[antilog[::2]] = np.minimum(antilog[:half], antilog[half:])
        return chi, sqrt

    def _mul_matrix(self, u: int) -> np.ndarray:
        """The k x k matrix over F_p of "multiply by u": row j holds the digits
        of u*t^j, so a row of digits times it is the digits of the product."""
        p, k = self.p, self.k
        times_t = np.zeros((k, k), dtype=np.int64)
        times_t[:-1, 1:] = np.eye(k - 1, dtype=np.int64)
        times_t[-1] = [-c % p for c in self.modulus[:k]]  # t^k = -(m_0 + ... + m_(k-1) t^(k-1))
        rows = [u // p ** np.arange(k) % p]
        for _ in range(k - 1):
            rows.append(rows[-1] @ times_t % p)
        return np.array(rows)

    def _least_generator(self) -> np.ndarray:
        """The "multiply by g" matrix of the least multiplicative generator g."""
        n = self.q - 1
        fac = set(prime_factors(n))
        one, mat_mul = np.eye(self.k, dtype=np.int64), lambda a, b: a @ b % self.p
        for g in range(2, self.q):
            mat = self._mul_matrix(g)
            if not any(np.array_equal(power(mat, n // r, mat_mul, one), one) for r in fac):
                return mat
        raise RuntimeError("no generator found")  # unreachable for a field

    def _log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(log, antilog) with antilog[e] = g^e for the least generator g."""
        q, p = self.q, self.p
        step = self._least_generator()
        # digit rows of g^0 .. g^(b-1), doubled up to one block; step = g^b
        rows = np.eye(1, self.k, dtype=np.int64)
        while len(rows) < min(LOG_BLOCK, q - 1):
            rows = np.vstack([rows, rows @ step % p])
            step = step @ step % p
        place = p ** np.arange(self.k)
        antilog = np.empty(q - 1, dtype=np.int64)
        for lo in range(0, q - 1, len(rows)):
            antilog[lo:lo + len(rows)] = (rows @ place)[:q - 1 - lo]
            rows = rows @ step % p
        log = np.full(q, -1, dtype=np.int64)
        log[antilog] = np.arange(q - 1)
        return log, antilog

    # -- addition, on codes or int64 arrays ----------------------------------
    # Operands are codes in [0, q), as ints or arrays.  A prime field then reduces
    # by one conditional subtraction, in place on an array, where % costs twice as
    # much; the digitwise % never sees a negative operand, which numpy runs slower.

    def _digitwise(self, u, v, s: int):
        """u + s*v (s = +1 or -1) digit by digit in base p; u + q has u's digits."""
        p, out, u = self.p, 0, u + self.q
        for place in self._places:
            out += (u // place + s * (v // place)) % p * place
        return out

    def add(self, u, v):
        if self.k > 1:
            return self._digitwise(u, v, 1)
        s = u + v
        s -= self.q * (s >= self.q)
        return s

    def neg(self, u):
        return self.sub(0, u)

    def sub(self, u, v):
        if self.k > 1:
            return self._digitwise(u, v, -1)
        s = u - v
        s += self.q * (s < 0)
        return s

    # -- scalar element arithmetic (codes in [0, q)) ---------------------------

    def mul(self, u: int, v: int) -> int:
        if self.k == 1:
            return (u * v) % self.q
        if u == 0 or v == 0:
            return 0
        log, antilog = self._log_lists
        return antilog[(log[u] + log[v]) % (self.q - 1)]

    def inv(self, u: int) -> int:
        return self.pow(u, -1)

    def div(self, u: int, v: int) -> int:
        return self.mul(u, self.inv(v))

    def pow(self, u: int, n: int) -> int:
        if u == 0:
            if n < 0:
                raise DivisionByZero("0 has no multiplicative inverse")
            return 0 if n else 1
        if self.k == 1:
            return pow(u, n, self.q)
        log, antilog = self._log_lists
        return antilog[log[u] * n % (self.q - 1)]

    def embed(self, n: int) -> int:
        """Code of the prime-subfield element n mod p."""
        return n % self.p

    def chi(self, u: int) -> int:
        return int(self.chi_table[u])

    def sqrt(self, u: int) -> int:
        """A square root of u; valid only when chi(u) >= 0 (sqrt_table[0] is 0)."""
        if self.chi_table[u] < 0:
            raise ValueError(f"{u} is not a square in F_{self.q}")
        return int(self.sqrt_table[u])

    @cached_property
    def logs(self) -> tuple[np.ndarray, np.ndarray]:
        """(log, antilog) for the least multiplicative generator by code; built
        with the field on an extension field, on first use on a prime field."""
        return read_only(*self._log_tables())

    @cached_property
    def chi_one_minus(self) -> np.ndarray:
        """chi(1 - u) at every code u, built on first use."""
        return read_only(self.chi_table[self.vsub(1, self.codes)])[0]

    @cached_property
    def _log_lists(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """logs as tuples, for the scalar mul/inv/pow; built on first scalar use."""
        return tuple(self.logs[0].tolist()), tuple(self.logs[1].tolist())

    @cached_property
    def lifts(self) -> tuple[tuple[int, ...], tuple[int, ...], Callable[[int], int]]:
        """(log, ex, back) for gfpoly's log-domain kernels, built on first use.  ex[e]
        is the lift of g^e for e below 3(q-1), and ex[log[0]] = ex[-1] = 0.  A lift is
        the code on a prime field, else the code's k base-p digits in bit slots wide
        enough that a sum of 2*LIFT_ROWS lifts carries nothing.  back reads a sum of
        lifts as a code: % q, or each slot mod p."""
        log, antilog = self._log_lists
        p, places = self.p, self._places
        if self.k == 1:
            return log, antilog * 3 + (0,), self.q.__rmod__
        bits = (2 * LIFT_ROWS * (p - 1)).bit_length()
        mask = (1 << bits) - 1
        lift = sum((self.logs[1] // u % p).astype(object) << bits * i for i, u in enumerate(places))

        def back(s: int) -> int:
            out = 0
            for u in places:
                out, s = out + (s & mask) % p * u, s >> bits
            return out

        return log, tuple(lift.tolist()) * 3 + (0,), back

    # -- vectorized arithmetic on int64 code arrays ----------------------------

    @property
    def codes(self) -> np.ndarray:
        return np.arange(self.q, dtype=np.int64)

    def vadd(self, U, V) -> np.ndarray:
        return self.add(np.asarray(U, dtype=np.int64), np.asarray(V, dtype=np.int64))

    def vneg(self, U) -> np.ndarray:
        return self.neg(np.asarray(U, dtype=np.int64))

    def vsub(self, U, V) -> np.ndarray:
        return self.sub(np.asarray(U, dtype=np.int64), np.asarray(V, dtype=np.int64))

    def vmul(self, U, V) -> np.ndarray:
        U, V = np.asarray(U, dtype=np.int64), np.asarray(V, dtype=np.int64)
        if self.k == 1:
            return U * V % self.q
        log, antilog = self.logs
        # log[0] = -1 is a valid index; np.where puts 0 there
        return np.where((U == 0) | (V == 0), 0, antilog[(log[U] + log[V]) % (self.q - 1)])

    def vinv(self, U) -> np.ndarray:
        """Elementwise inverse by one log lookup, and 0 at 0."""
        U = np.asarray(U, dtype=np.int64)
        log, antilog = self.logs
        return np.where(U == 0, 0, antilog[-log[U] % (self.q - 1)])

    # -- characters of unreduced sums of powers of g --------------------------

    @cached_property
    def log_digits(self) -> tuple[np.ndarray, int, tuple[np.ndarray, ...]]:
        """(rows, zero, tables), built on first use.  rows[e] holds g^e for e below
        LOG_DIGIT_TILES*(q-1), so monomials need no log reduction: the code on a prime
        field, else its k base-p digits in one int64, packed_bits(p) bits each.
        code_of_sum reads zero plus a signed sum of at most SUM_TERMS rows; zero holds
        span in every digit, so a digit stays in [0, 2*span] and carries nothing.  The
        sums serve method C's characters and method D's line coefficients; unpacked
        base-p digit arrays summed by tensordot gave C the same results 4-13x slower."""
        p, k, antilog = self.p, self.k, self.logs[1]
        span = SUM_TERMS * (p - 1)  # a digit of a sum lies in [-span, span]
        if k == 1:  # chi(t mod q) at t + span, for t = -span, ..., span
            rows, zero = antilog.astype(np.int32), span
            tables = [np.resize(np.roll(self.chi_table, span), 2 * span + 1)]
        else:
            bits = packed_bits(p)
            rows = sum(antilog // p**i % p << bits * i for i in range(k))
            zero = sum(span << bits * i for i in range(k))
            tables, n = [], 16 // bits  # n digits per table: the code of their residues
            for i in np.split(np.arange(k), range(n, k, n)):
                d = np.arange(1 << bits * i.size)[:, None] >> bits * (i - i[0]) & (1 << bits) - 1
                tables.append(((d - span) % p @ p**i).astype(np.int32))
        return read_only(np.tile(rows, LOG_DIGIT_TILES))[0], zero, read_only(*tables)

    def code_of_sum(self, T: np.ndarray) -> np.ndarray:
        """Codes of the log_digits sums T: (T - zero) % q on a prime field, else the sum of
        the codes that table g gives the g-th group of digits (at most 2^16 entries)."""
        _, zero, tables = self.log_digits
        if self.k == 1:
            return (T - zero) % self.q
        width = tables[0].size.bit_length() - 1  # bits of a full group
        return sum(t.take((T >> g * width) & (t.size - 1)) for g, t in enumerate(tables))

    def chi_of_sum(self, T: np.ndarray) -> np.ndarray:
        """chi of the sums T that log_digits describes; one lookup on a prime field."""
        if self.k == 1:
            return self.log_digits[2][0].take(T)
        return self.chi_table.take(self.code_of_sum(T))

    # -- misc -------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Field(q={self.q}, p={self.p}, k={self.k})"


def make_field(q: int) -> Field:
    """Construct F_q for an odd prime power q in [3, 2^20], the ceiling checked first."""
    if q > MAX_FIELD_ORDER and q % 2:
        raise TooLarge(f"q={q} exceeds the field ceiling {MAX_FIELD_ORDER}")
    p, k = factor_prime_power(q)
    modulus = least_irreducible(p, k)
    return Field(q, p, k, modulus)


def odd_prime_powers(lo: int, hi: int) -> list[int]:
    """All odd prime powers in [lo, hi], ascending."""
    out = []
    for q in range(lo | 1, hi + 1, 2):
        try:
            factor_prime_power(q)
        except NotOddPrimePower:
            continue
        out.append(q)
    return out
