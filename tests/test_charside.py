import tracemalloc
import zlib
from fractions import Fraction

import numpy as np
import pytest

from mnaq import assoc, charside
from mnaq.assoc import ALL_CLASSES, class_code_grid
from mnaq.charside import (
    CHAR_NAMES,
    Signs,
    class_masks,
    is_regular_pair,
    exceptional_pairs,
    orbit_lines,
    pair_signs,
    s_class_member,
    sigma_count_D,
    slice_counters,
    slice_eval,
    slice_params,
    t_grid,
    t_partition,
)
from mnaq.errors import BadSliceParam, IrregularPair, NotInS, TooLarge, VerificationFailure
from mnaq.field import LOG_DIGIT_TILES, SUM_TERMS, odd_prime_powers
from mnaq.gfpoly import poly_eval_vec
from mnaq.quasigroup import CAYLEY_LIMIT, SPair, enumerate_S, phi_map, square_codes
from mnaq.reports import limit_constant
from mnaq.suites import membership_vs_e_side
from mnaq.weil import SLICE_POLYS, slice_param_admissible, slice_poly_list, table_eval

from conftest import field


def frobenius(F):
    """u -> u^p at every code, by the scalar pow."""
    return np.array([F.pow(u, F.p) for u in range(F.q)])


def table_grids(F):
    """Each SLICE_POLYS entry on the (q, q) grid, indexed [x, y]."""
    X, Y = F.codes[:, None], F.codes[None, :]
    return {name: table_eval(F, name, X, Y) for name in SLICE_POLYS}


@pytest.mark.parametrize("q", [13, 19, 27])
def test_poly_swap_identities_pointwise(q):
    g = table_grids(field(q))
    assert (g["f2"] == g["f1"].T).all()
    assert (g["f3"] == g["f4"].T).all()
    assert (g["g2"] == g["g1"].T).all()
    assert (g["g4"] == g["g3"].T).all()


@pytest.mark.parametrize("q", [13, 27])
def test_reciprocal_identities_on_squares(q):
    F = field(q)
    g = table_grids(F)
    for x in range(2, q):
        for y in range(2, q):
            if F.chi(x) != 1 or F.chi(y) != 1:
                continue
            xi, yi = F.inv(x), F.inv(y)
            assert F.chi(g["f3"][x, y]) == F.chi(F.neg(g["f1"][xi, yi]))
            assert F.chi(g["g3"][x, y]) == F.chi(g["g1"][xi, yi])


def test_table_matches_scalar_forms():
    # the grid evaluator against the polynomials written out in F's scalar ops
    F = field(27)
    g = table_grids(F)
    m, a, s, two = F.mul, F.add, F.sub, F.embed(2)
    for x in range(27):
        for y in range(27):
            xx, yy, xy = m(x, x), m(y, y), m(x, y)
            assert g["f1"][x, y] == s(s(a(xx, yy), xy), x)
            assert g["f4"][x, y] == s(s(a(m(xx, y), xy), xx), yy)
            assert g["g1"][x, y] == s(a(xx, y), m(two, x))
            assert g["g3"][x, y] == s(a(xx, y), m(two, xy))
            assert g["x-xy-y"][x, y] == s(s(x, xy), y)


def test_membership_validates_input():
    F = field(13)
    with pytest.raises(NotInS):
        s_class_member(F, SPair(0, 3), (0, 0, 0, 0))


def test_slice_eval_rejects_zero():
    # the slice is read through logs, which 0 does not have
    F = field(13)
    with pytest.raises(ValueError):
        slice_eval(F, 0)


def test_slice_eval_rejects_a_nonsquare_c():
    # a sign on the line x = (x/c) y drops chi(c^d), which is 1 for a square c only
    F = field(13)
    with pytest.raises(ValueError):
        slice_eval(F, 2)


@pytest.mark.parametrize("cls", [(0, 0, 0, -1), (0, 0, 2, 0), (2, 0, 0, 0), (0, 0, 0), (1,) * 5])
def test_s_class_member_rejects_a_class_that_is_not_four_bits(cls):
    # (0, 0, 0, -1) and (0, 0, 2, 0) once read rows 15 and 2 of the masks
    F = field(13)
    with pytest.raises(ValueError, match="not a class"):
        s_class_member(F, SPair(3, 4), cls)


def test_exceptional_pair_raises():
    F = field(11)
    exc = exceptional_pairs(F)
    assert exc  # x^2 - x - 1 splits mod 11 with square roots
    with pytest.raises(IrregularPair):
        s_class_member(F, exc[0], (0, 0, 0, 0))


@pytest.mark.parametrize("q", [11, 13, 59, 61, 25, 121, 1331])
def test_exceptional_pairs_limited_and_in_union(q):
    F = field(q)
    exc = exceptional_pairs(F)
    assert len(exc) <= 4
    assert exc or q in (13, 61)
    for sp in exc:
        assert not is_regular_pair(F, *sp)
        # counted as non-MNA: the parameter side must agree
        assert (class_code_grid(F, phi_map(F, sp)) >= 0).any()
        # D needs no special case: the fixed characters there meet the rule of
        # class (0,0,0,0) when q = 1 mod 4 and of (0,1,1,0) when q = 3 mod 4
        assert class_masks(q % 4, pair_signs(F, *sp))[0 if q % 4 == 1 else 6], sp


@pytest.mark.parametrize("q", [13, 17, 19, 23])
def test_membership_matches_e_side(q):
    checked, bad = membership_vs_e_side(field(q))
    assert checked and not bad, bad[:5]


def test_s_class_member_reads_slice_masks():
    # the class rules at pair_signs against the classes the parameter side solves
    F = field(13)
    for sp in enumerate_S(F):
        if not is_regular_pair(F, *sp):
            continue
        truth = np.isin(np.arange(16), class_code_grid(F, phi_map(F, sp)))
        for code, cls in enumerate(ALL_CLASSES):
            assert s_class_member(F, sp, cls) == truth[code], (sp, cls)


def test_mod1_class_0000_rule():
    # chi(1-x) = chi(1-y) = chi(x-y) puts (x, y) in the identity class
    F = field(13)
    for sp in enumerate_S(F):
        if not is_regular_pair(F, *sp):
            continue
        x, y = sp
        eps = F.chi(F.sub(x, y))
        expected = F.chi(F.sub(1, x)) == eps and F.chi(F.sub(1, y)) == eps
        assert s_class_member(F, sp, (0, 0, 0, 0)) == expected
        assert s_class_member(F, sp, (1, 1, 1, 1)) == expected


def test_mod3_identity_classes_empty():
    F = field(19)
    for sp in enumerate_S(F):
        if not is_regular_pair(F, *sp):
            continue
        for cls in ((0, 0, 0, 0), (0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1)):
            assert not s_class_member(F, sp, cls)
        assert s_class_member(F, sp, (0, 1, 1, 0)) == s_class_member(
            F, sp, (1, 0, 0, 1)
        )


@pytest.mark.parametrize("q", [9, 11, 13, 17, 19, 23, 25, 27, 29, 31])
def test_sigma_d_matches_method_c(q, sigma_small):
    from mnaq.assoc import sigma_count

    F = field(q)
    d = sigma_count_D(F)
    assert d == sigma_count(F, "C")
    if q in sigma_small:
        assert d == sigma_small[q]


def test_sigma_d_matches_full_scan(monkeypatch):
    # the full scan over every pair of every slice, kept here as the oracle
    # for the orbit-weighted count; D runs at the shipped block size and in
    # blocks of 1, 2 and 3 lines, with the pairs that have a 0 sign counted two
    # blocks at a time.  625, 729 and 1331 have subfields, so some of
    # their orbits are shorter than 2k; a line of 257, 509 and 1021 scans 65, 128
    # and 256 y, one bit past a word and whole words
    for q in [*odd_prime_powers(3, 400), 257, 509, 625, 729, 1021, 1331]:
        F = field(q)
        squares = [c for c in range(2, q) if F.chi(c) == 1]
        full = sum(int(slice_eval(F, c).t_mask.sum()) for c in squares)
        assert sigma_count_D(F) == full, q
        words = -(-((q - 1) // 4 + 1) // 64)  # a line's y, padding included, 64 a word
        for rows in (1, 2, 3):
            monkeypatch.setattr(charside, "BLOCK_WORDS", rows * words)
            monkeypatch.setattr(charside, "ZERO_LINES", 2 * rows)
            assert sigma_count_D(F) == full, (q, rows)
        monkeypatch.undo()


def test_method_c_polys_fit_the_sum_lookup():
    # method C's assoc.class_nonempty_vec sums the monomials a^m b^n of each of its
    # polynomials unreduced from tiled log rows
    terms = np.abs(assoc._C_POLYS).sum(axis=1)
    degree = (assoc._C_POLYS != 0) * assoc._MONOS.sum(axis=1)
    assert (terms.max(), degree.max()) == (4, 3)
    assert terms.max() <= SUM_TERMS and degree.max() <= LOG_DIGIT_TILES


@pytest.mark.parametrize("q", [11, 13, 19, 29])
def test_limit_constant_is_the_share_of_the_sign_cube_in_t(q):
    # the 15 characters class_masks reads as free signs: 3812 (q = 1 mod 4) or
    # 1650 (q = 3 mod 4) of the 2^15 sign vectors lie in T; times 1/4 for x and
    # y being squares, that is the paper's limit constant
    n = 3812 if q % 4 == 1 else 1650
    assert limit_constant(q) == Fraction(n, 2**17)
    assert limit_constant(q) == (Fraction(953, 32768) if q % 4 == 1 else Fraction(825, 65536))


@pytest.mark.parametrize("q", [13, 27, 49, 125, 243, 1009])
def test_slice_chars_match_horner(q):
    # the Horner route through the specialised list, kept here as the oracle
    F = field(q)
    for c in map(int, square_codes(F)):
        ev = slice_eval(F, c)
        assert list(ev.chars) == list(SLICE_POLYS)[1:] + ["1-y"]
        for name, p in zip(SLICE_POLYS, slice_poly_list(F, c)):
            if name != "x":
                want = F.chi_table[poly_eval_vec(F, p, ev.xs)]
                assert np.array_equal(ev.chars[name], want), (c, p)
        assert (ev.chars["1-y"] == F.chi(F.sub(1, c))).all()


def horner_signs(F, X, Y):
    """The CHAR_NAMES signs at (X, Y) by Horner's rule on the SLICE_POLYS entries."""
    X, Y = np.broadcast_arrays(X, Y)
    return {name: F.chi_table[F.vsub(1, Y) if name == "1-y" else table_eval(F, name, X, Y)]
            for name in CHAR_NAMES}


@pytest.mark.parametrize("q", [2187, 10009])
def test_pair_signs_match_horner_at_random_pairs(q):
    # y a nonzero square, x any nonzero code: squares and nonsquares alike
    F = field(q)
    rng = np.random.default_rng(q + 1)
    X = rng.integers(1, q, 10**4)
    Y = rng.choice(np.flatnonzero(F.chi_table == 1), 10**4)
    assert (F.chi_table[X] == -1).sum() > 4000
    signs, want = pair_signs(F, X, Y), horner_signs(F, X, Y)
    assert list(signs) == list(CHAR_NAMES)
    for name in CHAR_NAMES:
        assert np.array_equal(signs[name], want[name]), name


@pytest.mark.parametrize("q", [13, 27])
def test_pair_signs_broadcast_a_column_of_x_against_a_row_of_y(q):
    F = field(q)
    X = np.arange(1, q)[:, None]
    Y = np.flatnonzero(F.chi_table == 1)[None, :]
    signs, want = pair_signs(F, X, Y), horner_signs(F, X, Y)
    for name in CHAR_NAMES:
        assert signs[name].shape == (q - 1, (q - 1) // 2)
        assert np.array_equal(signs[name], want[name]), name


def line_parts(F, lam):
    """[B, A] for each CHAR_NAMES entry at the codes lam, from charside.LINE_COEFFS by
    Horner's rule, and the degree d of P(λy, y) = y^d (A(λ) y + B(λ)) from SLICE_POLYS."""
    coeffs = charside.LINE_COEFFS.transpose(2, 1, 0)  # name, B or A, power of λ
    parts = [[poly_eval_vec(F, tuple(map(F.embed, row)), lam) for row in name]
             for name in coeffs]
    low = [min(i + j for i, row in enumerate(poly) for j, a in enumerate(row) if a)
           for poly in [*list(SLICE_POLYS.values())[1:], ((1, -1),)]]
    return parts, low


def check_line_identity(F, X, Y):
    lam = F.vmul(X, F.vinv(Y))
    parts, low = line_parts(F, lam)
    for name, (B, A), d in zip(CHAR_NAMES, parts, low):
        P = F.vsub(1, Y) if name == "1-y" else table_eval(F, name, X, Y)
        y_d = F.vmul(Y, Y) if d == 2 else Y if d == 1 else np.ones_like(Y)
        assert np.array_equal(P, F.vmul(y_d, F.vadd(F.vmul(A, Y), B))), name


@pytest.mark.parametrize("q", [13, 25, 27, 49, 81, 125])
def test_line_polys_at_every_pair_of_squares(q):
    # each sign D reads is chi(y^d (A(λ) y + B(λ))) on the line x = λy
    F = field(q)
    squares = square_codes(F)
    X, Y = (a.ravel() for a in np.meshgrid(np.append(squares, 1), np.append(squares, 1)))
    check_line_identity(F, X, Y)


@pytest.mark.parametrize("q", [2187, 10009])
def test_line_polys_at_random_pairs_of_squares(q):
    F = field(q)
    squares = np.flatnonzero(F.chi_table == 1)
    X, Y = np.random.default_rng(q).choice(squares, (2, 10**4))
    check_line_identity(F, X, Y)


def test_line_polys_reject_three_degrees(monkeypatch):
    # an entry with monomials of total degrees 0 and 2 has no line form
    monkeypatch.setitem(SLICE_POLYS, "x-1", ((-1,), (0,), (1,)))
    with pytest.raises(VerificationFailure, match="x-1"):
        charside._line_coeffs()


def sign_cube() -> dict[str, np.ndarray]:
    """The CHAR_NAMES signs as free +-1 values, each along its own axis, as
    reports.limit_constant lays them out."""
    n = len(CHAR_NAMES)
    return {name: np.array([1, -1], dtype=np.int8).reshape(tuple(shape))
            for name, shape in zip(CHAR_NAMES, 1 + np.eye(n, dtype=int))}


@pytest.mark.parametrize("mod4, crc", [(1, 0xE45C53DE), (3, 0xC518A01A)])
def test_class_masks_pinned_on_the_sign_cube(mod4, crc):
    # every row of the (16, 2^15) mask over the free signs; the T count alone is
    # 3812 or 1650
    m = class_masks(mod4, sign_cube())
    assert m.shape == (16, *(2,) * len(CHAR_NAMES)) and m.dtype == bool
    assert zlib.crc32(m.tobytes()) == crc
    assert (~m.any(axis=0)).sum() == (3812 if mod4 == 1 else 1650)


def to_signs(signs: np.ndarray) -> Signs:
    """(..., width) int8 signs of +-1 as Signs of (..., nw) uint64 words, 64 signs a word,
    least significant bit first; the signs past width are 1."""
    width = signs.shape[-1]
    padded = np.ones((*signs.shape[:-1], 64 * -(-width // 64)), dtype=np.int8)
    padded[..., :width] = signs
    return Signs(np.packbits(padded == -1, axis=-1, bitorder="little").view("<u8"))


def from_words(words: np.ndarray, width: int) -> np.ndarray:
    """The first width bits of each row of (..., nw) uint64 words, as bools."""
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), axis=-1, bitorder="little")
    return bits[..., :width].astype(bool)


def test_signs_operations_match_int8():
    # every pair of signs in {1, -1}; D's words never hold a 0, so == 0 is all-false
    u, v = (np.array(a, dtype=np.int8).reshape(1, 4) for a in np.meshgrid([1, -1], [1, -1]))
    su, sv = to_signs(u), to_signs(v)
    assert su.shape == (1, 1)
    for signs, ints in ((-su, -u), (su * sv, u * v)):
        for c in (1, -1):
            assert np.array_equal(from_words(signs == c, 4), ints == c)
            assert np.array_equal(from_words(signs != c, 4), ints != c)
    assert np.array_equal(from_words(su == sv, 4), u == v)
    assert np.array_equal(from_words(su != sv, 4), u != v)
    assert (su == 0).tolist() == [[0]] and (su != 0).tolist() == [[2**64 - 1]]
    with pytest.raises(ValueError):
        su == 2


@pytest.mark.parametrize("width", [129, 127])
@pytest.mark.parametrize("mod4", [1, 3])
def test_class_masks_on_signs_match_int8(mod4, width):
    # the sign cube, each vector one column, then seeded signs of +-1, cut into lines of
    # width y whose last word is partial (width % 64 is 1 or 63); the rules on Signs,
    # masked to the width as D masks them, give the int8 T bit for bit
    cube = np.stack([np.broadcast_to(v, (2,) * len(CHAR_NAMES)).ravel()
                     for v in sign_cube().values()])
    rows = 300
    rng = np.random.default_rng(5)
    rest = 2 * rng.integers(0, 2, size=(len(CHAR_NAMES), rows * width - cube.shape[1])) - 1
    signs = np.hstack([cube, rest]).astype(np.int8).reshape(len(CHAR_NAMES), rows, width)
    t = ~class_masks(mod4, dict(zip(CHAR_NAMES, signs))).any(axis=0)
    words = dict(zip(CHAR_NAMES, map(to_signs, signs)))
    valid = to_signs(-np.ones((1, width), dtype=np.int8)).neg
    words = ~np.bitwise_or.reduce(class_masks(mod4, words), axis=0) & valid
    bits = 64 * -(-width // 64)
    assert words.dtype == np.uint64 and words.shape == (rows, bits // 64)
    assert np.array_equal(from_words(words, bits), np.pad(t, ((0, 0), (0, bits - width))))
    assert t[:cube.shape[1] // width].sum() > 0 and t.sum() > 0


@pytest.mark.parametrize("q", [*odd_prime_powers(3, 400), 10009])
def test_zero_columns_match_table_eval(q):
    # the (line, column) pairs D counts from int8 signs, read off the tile by offsets,
    # against every SLICE_POLYS entry and 1 - y evaluated at every scanned pair (x, y) =
    # (g^(2m) y, y), y = g^(2(start + k)); x = 1 is among them, as x - 1 vanishes there
    F = field(q)
    M, width = (q - 1) // 2, (q + 3) // 4
    antilog = F.logs[1]
    m = orbit_lines(F)[:, 0]
    start = (M - m + 1) // 2
    off = charside._line_signs(F, 2 * m) + (2 * start).astype(np.int32)
    got = set(zip(*(a.tolist() for a in charside._zero_columns(F, off, width))))
    want = set()
    for s in range(0, len(m), 64):
        line = np.arange(s, min(s + 64, len(m)))[:, None]
        Y = antilog[2 * (start[line] + np.arange(width)) % (q - 1)]
        X = F.vmul(antilog[2 * m[line]], Y)
        zero = F.vsub(1, Y) == 0
        for name in SLICE_POLYS:
            zero |= table_eval(F, name, X, Y) == 0
        rows, cols = np.nonzero(zero)
        want |= set(zip((rows + s).tolist(), cols.tolist()))
    assert got == want
    assert {(i, M - m[i] - start[i]) for i in range(len(m))} <= got


def test_zero_columns_take_every_column_of_a_vanishing_sign():
    # a sign whose A and B both vanish reads the tile's run of zeros: 0 on the whole line
    F = field(13)
    N, width = F.q - 1, (F.q + 3) // 4
    m = orbit_lines(F)[:, 0]
    off = charside._line_signs(F, 2 * m) + (2 * ((N // 2 - m + 1) // 2)).astype(np.int32)
    regular = set(zip(*(a.tolist() for a in charside._zero_columns(F, off, width))))
    off[3, 1] = 4 * N + 2  # in the run of q + 1 zeros at 4N
    got = set(zip(*(a.tolist() for a in charside._zero_columns(F, off, width))))
    assert got == {p for p in regular if p[0] != 1} | {(1, k) for k in range(width)}


def test_sigma_d_memory_is_a_few_blocks():
    F = field(10009)
    sigma_count_D(F)  # the lazy field tables, outside the traced window
    tracemalloc.start()
    try:
        sigma_count_D(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a block of signs and masks, the tile and the line offsets: about 1.5 MB; a larger
    # block or a chunk-sized buffer would show here before it shows in the process's RSS
    assert peak < 2e6


def signed_permutation(subst) -> dict[str, tuple[str, int]]:
    """name -> (image, k) for each of CHAR_NAMES: chi of the name's polynomial at the
    point subst maps (x, y) to is chi(-1)^k times chi of image's polynomial at (x, y),
    on pairs of nonzero squares.  subst acts on the exponents (i, j) of x^i y^j; a
    monomial factor is a square there, so polynomials compare up to one."""
    def up_to_monomials(terms):
        low = [min(e) for e in zip(*terms)]
        return frozenset(((i - low[0], j - low[1]), a) for (i, j), a in terms.items())

    rows = {**SLICE_POLYS, "1-y": ((1, -1),)}
    terms = {name: {(i, j): a for i, row in enumerate(rows[name])
                    for j, a in enumerate(row) if a} for name in CHAR_NAMES}
    forms = {up_to_monomials({e: sign * a for e, a in t.items()}): (name, k)
             for name, t in terms.items() for k, sign in ((0, 1), (1, -1))}
    assert len(forms) == 2 * len(CHAR_NAMES)  # no two signs are the same up to sign
    return {name: forms[up_to_monomials({subst(*e): a for e, a in t.items()})]
            for name, t in terms.items()}


@pytest.mark.parametrize("mod4", [1, 3])
def test_t_on_the_sign_cube_is_invariant_under_swap_and_inversion(mod4):
    # D weights each orbit of (x, y) -> (y, x) and (x, y) -> (1/x, 1/y) by its size,
    # which is sound when T, as a set of sign vectors, is closed under both maps
    swap = signed_permutation(lambda i, j: (j, i))
    inversion = signed_permutation(lambda i, j: (-i, -j))
    assert swap["x-1"] == ("1-y", 1) and swap["1-y"] == ("x-1", 1)
    assert swap["f1"] == ("f2", 0) and swap["f2"] == ("f1", 0)
    assert inversion["g1"] == ("g3", 0) and inversion["g3"] == ("g1", 0)
    chi_minus_one = 1 if mod4 == 1 else -1
    cube = sign_cube()
    t = ~class_masks(mod4, cube).any(axis=0)
    for perm in (swap, inversion):
        assert sorted(image for image, _ in perm.values()) == sorted(CHAR_NAMES)
        moved = {name: chi_minus_one**k * cube[image] for name, (image, k) in perm.items()}
        assert np.array_equal(~class_masks(mod4, moved).any(axis=0), t)


def test_sigma_d_jobs_matches_serial():
    # one prime of each residue mod 4 and extension fields of both; with 8 lines
    # or more D runs the fork pool, whose workers inherit the packed sign plane
    for q in (61, 67, 125, 243, 2401, 10007):
        F = field(q)
        assert len(orbit_lines(F)) >= 8
        assert sigma_count_D(F, jobs=2) == sigma_count_D(F), q


@pytest.mark.parametrize("q, sigma", [(6561, 1251016), (19683, 4884108), (59049, 101427286)])
def test_sigma_d_pinned_on_extension_fields(q, sigma):
    # pinned from D over classes {c, 1/c}, a scan that does not use the Frobenius map;
    # 3^10 from D over slices y = c, before D scanned lines
    assert sigma_count_D(field(q)) == sigma


@pytest.mark.parametrize("q", [13, 81, 625, 729])
def test_orbit_lines_cover_every_line_once(q):
    F = field(q)
    M = (q - 1) // 2
    lines = orbit_lines(F)
    m, n = lines.T
    assert m.tolist() == sorted(m.tolist()) and n.sum() == M - 1
    # the line of λ = g^(2m) goes to that of 1/λ and of λ^p, by the field's own maps
    log, antilog = F.logs
    inv, frob = F.vinv(F.codes), frobenius(F)
    orbit_of = np.full(M, -1)
    for i, (lead, size) in enumerate(lines):
        orbit = {int(lead)}
        frontier = [int(lead)]
        while frontier:
            lam = antilog[2 * frontier.pop()]
            for image in (int(log[inv[lam]]) // 2, int(log[frob[lam]]) // 2):
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        assert min(orbit) == lead and len(orbit) == size
        assert all(orbit_of[k] == -1 for k in orbit)  # in no earlier orbit
        orbit_of[list(orbit)] = i
        # closed under m -> -m and m -> pm mod M
        assert {-k % M for k in orbit} == orbit == {k * F.p % M for k in orbit}
    assert (orbit_of[1:] >= 0).all() and orbit_of[0] == -1


def test_slice_params_rule():
    for q in (27, 29, 31, 49):
        F = field(q)
        expected = [c for c in range(2, q) if F.chi(c) == 1
                    and (q % 4 == 1 or F.chi(F.sub(1, c)) == 1)]
        assert slice_params(F) == expected


@pytest.mark.parametrize("q", [13, 17, 25, 11, 19, 27])
def test_t_partition_identities(q):
    F = field(q)
    rep = t_partition(F)
    assert rep.ok, rep.violations
    assert rep.total == sigma_count_D(F)
    if q % 4 == 1:
        assert rep.parts["t1"] + 2 * rep.parts["t2"] == rep.total
        for rho, (r_all, _, _) in rep.r_counts.items():
            if (rho[0], rho[1]) == (-1, -1) or (rho[2], rho[3]) == (-1, -1):
                assert r_all == 0
        c1 = rep.r_counts[(1, 1, 1, -1)][1]
        assert (
            c1
            == rep.r_counts[(1, 1, -1, 1)][1]
            == rep.r_counts[(1, -1, 1, 1)][1]
            == rep.r_counts[(-1, 1, 1, 1)][1]
        )


T_PARTITIONS = {  # q: (|T|, parts, the nonzero r_counts), as computed before R's checks
    13: (10, {"t1": 2, "t2": 4, "t2p": 4, "forbidden": 0},
         {(-1, 1, 1, -1): (1, 1, 0), (1, -1, -1, 1): (1, 1, 0), (1, 1, 1, 1): (4, 0, 2)}),
    25: (32, {"t1": 16, "t2": 8, "t2p": 8, "forbidden": 0},
         {(-1, 1, -1, 1): (6, 6, 0), (-1, 1, 1, -1): (2, 2, 0), (-1, 1, 1, 1): (2, 0, 0),
          (1, -1, -1, 1): (2, 2, 0), (1, -1, 1, -1): (6, 6, 0), (1, -1, 1, 1): (2, 0, 2),
          (1, 1, -1, 1): (2, 0, 0), (1, 1, 1, -1): (2, 0, 2), (1, 1, 1, 1): (8, 0, 4)}),
    27: (24, {"t0": 12, "t0p": 12, "t11": 3, "t1m1": 3, "t2": 6, "t11p": 3, "t1m1p": 3,
              "t2p": 6, "forbidden": 0, "forbiddenp": 0}, None),
    31: (8, {"t0": 4, "t0p": 4, "t11": 2, "t1m1": 2, "t2": 0, "t11p": 2, "t1m1p": 2,
             "t2p": 0, "forbidden": 0, "forbiddenp": 0}, None),
    49: (108, {"t1": 12, "t2": 48, "t2p": 48, "forbidden": 0},
         {(-1, 1, -1, 1): (20, 0, 4), (-1, 1, 1, -1): (18, 6, 6), (1, -1, -1, 1): (18, 6, 6),
          (1, -1, 1, -1): (20, 0, 16), (1, 1, 1, 1): (24, 0, 12)}),
}


@pytest.mark.parametrize("q", sorted(T_PARTITIONS))
def test_t_partition_pinned(q):
    rep = t_partition(field(q))
    total, parts, r_nonzero = T_PARTITIONS[q]
    assert (rep.total, rep.parts, rep.violations) == (total, parts, [])
    if r_nonzero is None:
        assert rep.r_counts is None
    else:
        assert len(rep.r_counts) == 16
        assert {rho: c for rho, c in rep.r_counts.items() if any(c)} == r_nonzero


def test_t_partition_without_a_slice():
    # q = 3 has no slice and q = 5 one empty slice: the part names and their order
    # come from t_pieces, as for every other field
    rep = t_partition(field(3))
    assert list(rep.parts.items()) == [(key, 0) for key in (
        "t0", "t0p", "t11", "t1m1", "t2", "t11p", "t1m1p", "t2p", "forbidden", "forbiddenp")]
    assert (rep.total, rep.r_counts, rep.violations) == (0, None, [])
    rep = t_partition(field(5))
    assert list(rep.parts.items()) == [(key, 0) for key in ("t1", "t2", "t2p", "forbidden")]
    assert (rep.total, rep.violations) == (0, [])
    assert rep.r_counts == {tuple(2 * b - 1 for b in cls): (0, 0, 0) for cls in ALL_CLASSES}


def test_t_grid_is_guarded():
    F = field(next(q for q in odd_prime_powers(CAYLEY_LIMIT, 2 * CAYLEY_LIMIT)))
    with pytest.raises(TooLarge):
        t_grid(F)


def test_t_partition_reports_each_broken_identity(monkeypatch):
    # pieces corrupted on purpose: every identity t_partition lists must fire, with
    # the messages, and in the order, they had before R's checks read the code tables
    pieces = charside.t_pieces

    def corrupt(mod4, t, chars):
        p = pieces(mod4, t, chars)
        if mod4 == 3:
            p.update(forbidden=p["t11"], t2p=p["t0p"], t11=p["t0"], t0p=p["t0p"] | p["t0"])
        else:
            p.update(rho=np.where(p["rho"] >= 0, (p["rho"] + 5) % 16, -1), t2p=p["t1"])
        return p

    monkeypatch.setattr(charside, "t_pieces", corrupt)
    assert t_partition(field(27)).violations == [
        "T0 and T0' do not partition T", "forbidden sign combination present in T0/T0'",
        "T0 parts do not sum", "T0' parts do not sum",
        "|T11| = |T11'| = |T1m1| = |T1m1'| fails", "|T2| != |T2'|"]
    assert t_partition(field(25)).violations == [
        "T1, T2, T2' do not partition T", "|T2| != |T2'|",
        "R(-1, -1, -1, -1) with trailing (-1,-1) nonempty",
        "R(-1, -1, -1, -1) with leading (-1,-1) nonempty",
        "R(-1, -1, 1, -1) with leading (-1,-1) nonempty",
        "R(-1, -1, 1, 1) with leading (-1,-1) nonempty",
        "R(-1, 1, -1, -1) with trailing (-1,-1) nonempty",
        "R(1, 1, -1, -1) with trailing (-1,-1) nonempty",
        "|R1(-1, 1, -1, 1)| != |R1(1, -1, 1, -1)|", "|R1(-1, 1, 1, 1)| != |R1(1, -1, 1, 1)|",
        "|R1(1, -1, 1, -1)| != |R1(-1, 1, -1, 1)|", "|R1(1, -1, 1, 1)| != |R1(-1, 1, 1, 1)|",
        "|R1(1, 1, -1, 1)| != |R1(1, 1, 1, -1)|", "|R1(1, 1, 1, -1)| != |R1(1, 1, -1, 1)|",
        "|Ri(-1, -1, -1, 1)| != |Ri(-1, 1, -1, -1)|", "|Ri(-1, -1, 1, 1)| != |Ri(1, 1, -1, -1)|",
        "|Ri(-1, 1, -1, -1)| != |Ri(-1, -1, -1, 1)|", "|Ri(1, 1, -1, -1)| != |Ri(-1, -1, 1, 1)|"]


@pytest.mark.parametrize("q", [11, 19, 23, 27, 31])
def test_good_slice_count(q):
    assert len(slice_params(field(q))) == (q - 3) // 4


def test_slice_counters_validation():
    F = field(31)
    with pytest.raises(BadSliceParam):
        slice_counters(F, 0)
    nonsquare = next(c for c in range(2, 31) if F.chi(c) == -1)
    with pytest.raises(BadSliceParam):
        slice_counters(F, nonsquare)
    bad = next(
        c for c in range(2, 31) if F.chi(c) == 1 and F.chi(F.sub(1, c)) == -1
    )
    with pytest.raises(BadSliceParam):
        slice_counters(F, bad)


@pytest.mark.parametrize("q", [31, 43, 29, 37])
def test_slice_bounds_hold(q):
    F = field(q)
    n_adm = 0
    for c in range(2, q):
        if F.chi(c) != 1:
            continue
        if q % 4 == 3 and F.chi(F.sub(1, c)) != 1:
            continue
        sc = slice_counters(F, c)
        assert sc.admissible == slice_param_admissible(F, c)[0]
        if sc.admissible:
            n_adm += 1
            assert sc.bounds_ok
    assert n_adm > 0


@pytest.mark.parametrize("q", [29, 31])
def test_slice_sums_reconcile_with_partition(q):
    F = field(q)
    part = t_partition(F)
    sums = {}
    for c in range(2, q):
        if F.chi(c) != 1:
            continue
        if q % 4 == 3 and F.chi(F.sub(1, c)) != 1:
            continue
        for key, val in slice_counters(F, c).counts.items():
            sums[key] = sums.get(key, 0) + val
    for key, val in sums.items():
        assert val == part.parts[key]


def slice_loop_t_grid(F):
    """T on the (q, q) grid slice by slice, each slice y = c at the squares x != c."""
    grid = np.zeros((F.q, F.q), dtype=bool)
    for c in map(int, square_codes(F)):
        ev = slice_eval(F, c)
        grid[ev.xs[ev.t_mask], c] = True
    return grid


def test_t_grid_matches_the_slice_loop():
    # the grid masks its diagonal x = y, which no slice scans
    for q in odd_prime_powers(3, 49):
        F = field(q)
        assert np.array_equal(t_grid(F), slice_loop_t_grid(F)), q


@pytest.mark.parametrize("q", [27, 49, 81, 125, 243, 343])
def test_t_closed_under_frobenius(q):
    # D scans one slice per orbit of u -> 1/u and u -> u^p: every sign class_masks
    # reads is chi of a polynomial with integer coefficients, so T is closed
    # under (x, y) -> (x^p, y^p)
    F = field(q)
    frob = frobenius(F)
    grid = t_grid(F)
    assert grid.any() and (grid == grid[np.ix_(frob, frob)]).all()


@pytest.mark.parametrize("q", [13, 19])
def test_t_closed_under_swap_and_inversion(q):
    F = field(q)
    grid = t_grid(F)
    assert grid.sum() == sigma_count_D(F)
    assert (grid == grid.T).all()
    inv_idx = np.array([0] + [F.inv(u) for u in range(1, q)])
    assert (grid == grid[np.ix_(inv_idx, inv_idx)]).all()
