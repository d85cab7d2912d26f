"""Named verification suites driven by the CLI and the acceptance tests.

Each suite sweeps fields up to qmax, runs one family of checks, and returns a
report with one record per check.  Suites are pure recomputation: they never
consult fixtures, so they stay an independent oracle for the library.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .assoc import ALL_CLASSES, class_code_grid, sigma_count
from .charside import (
    COMPLEMENT,
    HALVES,
    SWAP,
    is_regular_pair,
    exceptional_pairs,
    sigma_count_D,
    slice_counters,
    slice_eval,
    slice_params,
    t_grid,
    t_partition,
    t_pieces,
)
from .field import Field, make_field, odd_prime_powers
from .gfpoly import factorize, normalize
from .quasigroup import (
    SPair,
    SigmaPair,
    enumerate_S,
    enumerate_sigma,
    is_latin_square,
    is_idempotent,
    cayley_table,
    least_nonsquare,
    multiplier_is_isomorphism,
    opposite_and_iso_checks,
    opposite_pair,
    phi_map,
    psi,
    psi_map,
    sigma_cardinality,
    square_codes,
)
from .rng import SplitMix64
from .weil import SLICE_POLYS, run_weil_trials, table_eval, verify_slice_lists

SLICE_FIELDS_MOD3 = (31, 43, 47, 59, 71)
SLICE_FIELDS_MOD1 = (29, 37, 41, 53)
MEMBERSHIP_FIELDS = (13, 17, 19, 23, 25, 27)


@dataclass
class Check:
    name: str
    q: int
    ok: bool
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    qmax: int
    checks: list[Check] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, q: int, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, q, bool(ok), detail))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "qmax": self.qmax,
            "ok": self.ok,
            "checks": [vars(c) for c in self.checks],
        }


_field = functools.cache(make_field)


def suite_bijection(qmax: int, jobs: int = 1) -> SuiteReport:
    rep = SuiteReport("bijection", qmax)
    for q in odd_prime_powers(3, qmax):
        F = _field(q)
        sigma = enumerate_sigma(F)
        spairs = enumerate_S(F)
        want = sigma_cardinality(q)
        rep.add("cardinality", q, len(sigma) == want == len(spairs),
                f"|Sigma|={len(sigma)} |S|={len(spairs)} formula={want}")
        images = set()
        ok_round = ok_inverse_ids = ok_perm = ok_latin = True
        for pair in sigma:
            sp = psi_map(F, pair)
            images.add(sp)
            ok_round &= phi_map(F, sp) == pair
            a, b = pair
            x, y = sp
            d = F.inv(F.sub(y, x))
            ok_inverse_ids &= (F.sub(1, a) == F.mul(F.mul(y, F.sub(1, x)), d)
                               and F.sub(1, b) == F.mul(F.sub(1, x), d))
            # orthomorphism property and Latin/idempotent structure
            psis = [psi(F, pair, u) for u in range(q)]
            diffs = [F.sub(psis[u], u) for u in range(q)]
            ok_perm &= len(set(psis)) == q == len(set(diffs))
            t = cayley_table(F, pair)
            ok_latin &= is_latin_square(t) and is_idempotent(t)
        rep.add("phi_after_psi", q, ok_round)
        rep.add("psi_injective", q, len(images) == len(sigma))
        rep.add("inverse_identities", q, ok_inverse_ids)
        ok_back = all(psi_map(F, phi_map(F, sp)) == sp for sp in spairs)
        rep.add("psi_after_phi", q, ok_back)
        rep.add("orthomorphism", q, ok_perm)
        rep.add("latin_idempotent", q, ok_latin)
    return rep


def suite_symmetry(qmax: int, jobs: int = 1) -> SuiteReport:
    rep = SuiteReport("symmetry", qmax)
    for q in odd_prime_powers(7, qmax):
        F = _field(q)
        sigma = enumerate_sigma(F)
        zeta = least_nonsquare(F)
        grids = {pair: class_code_grid(F, pair) for pair in sigma}
        zmap = np.asarray(F.vmul(zeta, F.codes))
        ok_scaling = ok_opposite = ok_sigma_level = True
        for pair in sigma:
            a, b = pair
            g = grids[pair]
            swapped = grids[SigmaPair(b, a)]
            ok_scaling &= (swapped[np.ix_(zmap, zmap)] == COMPLEMENT[g]).all()
            g_comp = grids[SigmaPair(F.sub(1, a), F.sub(1, b))]
            want = SWAP[g] if F.q % 4 == 1 else COMPLEMENT[SWAP[g]]
            ok_opposite &= (grids[opposite_pair(F, pair)].T == want).all()
            # every grid holds -1 at (0, 0), so the unique codes compare as sets with -1
            present = np.unique(g)
            ok_sigma_level &= (np.array_equal(np.unique(g_comp), np.unique(SWAP[present]))
                               and np.array_equal(np.unique(swapped),
                                                  np.unique(COMPLEMENT[present])))
        rep.add("transport_scaling", q, ok_scaling)
        rep.add("transport_opposite", q, ok_opposite)
        rep.add("class_presence_symmetry", q, ok_sigma_level)
        ok_structure = all(
            (r := opposite_and_iso_checks(F, pair)).iso_ok and r.opposite_ok
            for pair in sigma
        )
        rep.add("iso_and_opposite", q, ok_structure)
    if qmax >= 13:
        F = _field(13)
        zeta2 = F.mul(least_nonsquare(F), least_nonsquare(F))
        witness = any(
            a != b and not multiplier_is_isomorphism(F, SigmaPair(a, b),
                                                     SigmaPair(b, a), zeta2)[0]
            for a, b in enumerate_sigma(F)
        )
        rep.add("square_multiplier_fails", 13, witness,
                "a square multiplier must not pass the swap-isomorphism check")
    return rep


def suite_methods(qmax: int, jobs: int = 1) -> SuiteReport:
    rep = SuiteReport("methods", qmax)
    for q in odd_prime_powers(7, qmax):
        F = _field(q)
        values = {}
        if q <= 27:
            values["A"] = sigma_count(F, "A", jobs=jobs)
        if q <= 49:
            values["B"] = sigma_count(F, "B", jobs=jobs)
        if q <= 125:
            values["Bscaled"] = sigma_count(F, "Bscaled", jobs=jobs)
        values["C"] = sigma_count(F, "C", jobs=jobs)
        values["D"] = sigma_count_D(F, jobs=jobs)
        distinct = set(values.values())
        rep.add("cross_method", q, len(distinct) == 1,
                " ".join(f"{k}={v}" for k, v in values.items()))
    return rep


def membership_vs_e_side(F: Field) -> tuple[int, list[tuple]]:
    """(number of checks, mismatches) of slice_eval's class masks against the
    equation side, over every regular pair of S and all sixteen classes."""
    checked, bad = 0, []
    for y in map(int, square_codes(F)):
        ev = slice_eval(F, y)
        for x, member in zip(map(int, ev.xs), ev.classes.T):
            if is_regular_pair(F, x, y):
                truth = np.isin(np.arange(16), class_code_grid(F, phi_map(F, SPair(x, y))))
                checked += len(ALL_CLASSES)
                bad += [(x, y, ALL_CLASSES[code]) for code in np.flatnonzero(member != truth)]
    return checked, bad


def suite_charset(qmax: int, jobs: int = 1) -> SuiteReport:
    rep = SuiteReport("charset", qmax)
    for q in odd_prime_powers(7, min(qmax, 49)):
        F = _field(q)
        X, Y = F.codes[:, None], F.codes[None, :]
        g = {name: table_eval(F, name, X, Y) for name in SLICE_POLYS}
        ok_sym = bool(
            (g["f2"] == g["f1"].T).all()
            and (g["f3"] == g["f4"].T).all()
            and (g["g2"] == g["g1"].T).all()
            and (g["g4"] == g["g3"].T).all()
        )
        # chi(f3(x,y)) = chi(-f1(1/x,1/y)) and chi(g3(x,y)) = chi(g1(1/x,1/y))
        # on pairs of nonzero squares
        inv_idx = F.vinv(F.codes)
        sq = F.chi_table == 1
        mask = sq[:, None] & sq[None, :]
        chi = F.chi_table
        f1_inv = chi[F.vneg(g["f1"][np.ix_(inv_idx, inv_idx)])]
        g1_inv = chi[g["g1"][np.ix_(inv_idx, inv_idx)]]
        ok_recip = bool(
            (chi[g["f3"]][mask] == f1_inv[mask]).all()
            and (chi[g["g3"]][mask] == g1_inv[mask]).all()
        )
        rep.add("poly_symmetry", q, ok_sym)
        rep.add("poly_reciprocal", q, ok_recip)
    for q in MEMBERSHIP_FIELDS:
        if q > qmax:
            continue
        rep.add("membership_vs_e_side", q, not membership_vs_e_side(_field(q))[1])
    for q in odd_prime_powers(7, qmax):
        F = _field(q)
        exc = exceptional_pairs(F)
        rep.add("few_exceptional_pairs", q, len(exc) <= 4, f"{len(exc)} pairs")
        if q >= 47 and exc:
            in_union = all((class_code_grid(F, phi_map(F, sp)) >= 0).any() for sp in exc)
            rep.add("exceptional_in_union", q, in_union)
    for q in odd_prime_powers(7, min(qmax, 49)):
        F = _field(q)
        grid = t_grid(F)
        inv_idx = F.vinv(F.codes)
        ok_t_sym = bool(
            (grid == grid.T).all()
            and (grid == grid[np.ix_(inv_idx, inv_idx)]).all()
        )
        rep.add("t_closed_under_symmetries", q, ok_t_sym)
    return rep


def suite_weil(qmax: int, jobs: int = 1) -> SuiteReport:
    rep = SuiteReport("weil", qmax)
    for q in odd_prime_powers(3, qmax):
        if _field(q).k != 1:
            continue  # the sweep covers prime fields
        rep_q = run_weil_trials(_field(q), 200, seed=0xA5C0FFEE ^ q)
        rep.add("sign_pattern_bound", q, rep_q.ok,
                f"200 lists, max |N - q/2^k|/bound = {rep_q.max_ratio:.3f}")
    for q in (13, 27, 49):
        if q > qmax:
            continue
        F = _field(q)
        rng = SplitMix64(0xFAC70 + q)
        ok = True
        for _ in range(500):
            p = normalize([rng.below(q) for _ in range(6)] + [1])
            if factorize(F, p).rebuild(F) != p:
                ok = False
        rep.add("factor_roundtrip", q, ok, "500 seeded monic degree-6 inputs")
    return rep


def suite_slice_lists(qmax: int, jobs: int = 1) -> SuiteReport:
    rep = SuiteReport("thm31", qmax)
    for q in odd_prime_powers(3, qmax):
        F = _field(q)
        r = verify_slice_lists(F, jobs=jobs)
        rep.add("squarefree_and_rset", q, r.ok,
                f"admissible={r.admissible_count} violations={len(r.violations)}")
        nonzero_inadmissible = r.inadmissible_count - 1  # c = 0 always fails
        rep.add("avoided_at_most_51", q, nonzero_inadmissible <= 51,
                f"{nonzero_inadmissible} nonzero c excluded")
        n = r.inadmissible_slice_param_count
        if q % 4 == 3:
            rep.add("good_slice_exclusions_at_most_22", q, n <= 22, f"{n}")
        else:
            rep.add("square_exclusions_at_most_49", q, n <= 49, f"{n}")
    return rep


def suite_slices(qmax: int, jobs: int = 1) -> SuiteReport:
    rep = SuiteReport("slices", qmax)
    for q in SLICE_FIELDS_MOD3 + SLICE_FIELDS_MOD1:
        if q > qmax:
            continue
        F = _field(q)
        bound_ok = True
        admissible = 0
        sums = {}
        for c in slice_params(F):
            sc = slice_counters(F, c)
            for key, val in sc.counts.items():
                sums[key] = sums.get(key, 0) + val
            admissible += sc.admissible
            bound_ok &= sc.bounds_ok  # True where c is inadmissible: no bounds
        rep.add("slice_bounds", q, bound_ok, f"{admissible} admissible c")
        parts = t_partition(F).parts
        rep.add("slice_sums_match_partition", q,
                all(val == parts[key] for key, val in sums.items()), str(sums))
    return rep


def suite_partitions(qmax: int, jobs: int = 1) -> SuiteReport:
    rep = SuiteReport("partitions", qmax)
    for q in odd_prime_powers(7, qmax):
        F = _field(q)
        part = t_partition(F)
        rep.add("partition_identities", q, part.ok,
                "; ".join(part.violations) if part.violations else "")
        rep.add("total_is_sigma", q, part.total == sigma_count_D(F, jobs=jobs),
                f"|T|={part.total}")
        if q % 4 == 3:
            rep.add("good_slice_count", q,
                    len(slice_params(F)) == (q - 3) // 4)
    for q in odd_prime_powers(7, min(qmax, 49)):
        F = _field(q)
        ok = _partition_maps_hold(F)
        rep.add("partition_maps_elementwise", q, ok)
    return rep


def _partition_maps_hold(F: Field) -> bool:
    """Elementwise swap/inversion behaviour of the T partition pieces."""
    q = F.q
    X, Y = F.codes[:, None], F.codes[None, :]
    chars = {name: F.chi_table[table_eval(F, name, X, Y)]
             for name in ("x-1", "x-y", "f1", "f2", "f3", "f4")}
    chars["1-y"] = F.chi_one_minus[Y]
    m = t_pieces(q % 4, t_grid(F), chars)
    inv_idx = F.vinv(F.codes)

    def inv_perm(mask: np.ndarray) -> np.ndarray:
        return mask[np.ix_(inv_idx, inv_idx)]

    if q % 4 == 3:
        ok = (m["t11"].T == m["t11p"]).all() and (m["t1m1"].T == m["t1m1p"]).all()
        ok &= (m["t2"].T == m["t2p"]).all()
        ok &= (inv_perm(m["t11"]) == m["t1m1p"]).all()
        ok &= (inv_perm(m["t1m1"]) == m["t11p"]).all()
        ok &= (inv_perm(m["t2"]) == m["t2p"]).all()
        return bool(ok)

    t1, t2, t2p, rho = m["t1"], m["t2"], m["t2p"], m["rho"]
    ok = (t1.T == t1).all() and (t2.T == t2p).all()
    ok &= (inv_perm(t1) == t1).all()
    ok &= (inv_perm(t2) == t2).all() and (inv_perm(t2p) == t2p).all()
    # swap sends R_i(s1,s2,s3,s4) to R_i(s2,s1,s4,s3), inversion to R_i(s3,s4,s1,s2).
    # Both maps are involutions on the codes, so every R_i maps onto its image
    # exactly when the code grid does (-1 off the pieces stays -1); with t1 and t2
    # fixed above, so do the pieces R_i & t1 and R_i & t2.
    ok &= (rho.T == SWAP[rho]).all() and (inv_perm(rho) == HALVES[rho]).all()
    return bool(ok)


SUITES = {
    "bijection": suite_bijection,
    "symmetry": suite_symmetry,
    "methods": suite_methods,
    "charset": suite_charset,
    "weil": suite_weil,
    "thm31": suite_slice_lists,
    "slices": suite_slices,
    "partitions": suite_partitions,
}


def run_suite(name: str, qmax: int, jobs: int = 1) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](qmax, jobs=jobs)
