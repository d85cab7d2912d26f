import re

import numpy as np
import pytest

from mnaq.assoc import PAIR_BLOCK, is_mna_B, is_mna_Bscaled
from mnaq.errors import SearchExhausted, VerificationFailure
from mnaq.quasigroup import SigmaPair, is_sigma_pair
from mnaq.rng import SplitMix64
from mnaq.search import (
    SAMPLE_BLOCK,
    SearchCertificate,
    mna_sample_stats,
    sample_sigma_pair,
    search_mna,
    sigma_blocks,
    verify_certificate,
)

from conftest import field


def test_splitmix64_reference_stream():
    # published SplitMix64 test vector for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    rng = SplitMix64(1234567)
    assert rng.next_u64() == 6457827717110365317
    assert rng.next_u64() == 3203168211198807973


@pytest.mark.parametrize("n", [0, -1])
def test_below_rejects_an_empty_range(n):
    rng = SplitMix64(1)
    with pytest.raises(ValueError, match="n >= 1"):
        rng.below(n)
    assert rng.state == 1  # no draw was made


def test_sampler_uniform_over_sigma():
    F = field(13)
    rng = SplitMix64(2024)
    seen = {}
    for _ in range(4000):
        pair = sample_sigma_pair(F, rng, 10_000)
        assert is_sigma_pair(F, *pair)
        seen[pair] = seen.get(pair, 0) + 1
    assert len(seen) == 20  # every Sigma member gets hit
    assert min(seen.values()) > 100  # roughly uniform (expected 200 each)


def test_search_deterministic():
    F = field(13)
    a = search_mna(F, seed=42)
    b = search_mna(F, seed=42)
    assert a == b
    assert is_mna_Bscaled(F, SigmaPair(a.a, a.b))
    assert verify_certificate(F, a)


def test_search_cross_check_failure_raises(monkeypatch):
    import mnaq.search

    monkeypatch.setattr(mnaq.search, "is_mna_Bscaled", lambda F, pair: False)
    with pytest.raises(VerificationFailure):
        search_mna(field(13), seed=42)


def test_search_confirmation_rejects_a_pair_method_c_wrongly_accepts(monkeypatch):
    import mnaq.search

    F = field(13)
    seed = next(s for s in range(100)
                if not is_mna_B(F, sample_sigma_pair(F, SplitMix64(s), 10_000)))
    pair = sample_sigma_pair(F, SplitMix64(seed), 10_000)
    # method C wrongly accepts every pair of every block
    monkeypatch.setattr(mnaq.search, "is_mna_C_vec",
                        lambda F, a, b: np.ones(len(a), dtype=bool))
    with pytest.raises(VerificationFailure, match=re.escape(str(pair))):
        search_mna(F, seed=seed)


# -- the block sampler against the scalar loop it replaced -------------------

def scalar_sigma_pairs(F, rng, max_draws):
    """Oracle: one below() call per coordinate and one is_sigma_pair test per draw.
    Yields (pair, draws so far) per Sigma member and ends after max_draws misses in
    a row, yielding (None, draws so far)."""
    span, draws = F.q - 2, 0
    while True:
        for _ in range(max_draws):
            a, b = 2 + rng.below(span), 2 + rng.below(span)
            draws += 1
            if is_sigma_pair(F, a, b):
                yield SigmaPair(a, b), draws
                break
        else:
            yield None, draws
            return


def block_pairs(F, seed, max_draws, n):
    """The first n Sigma pairs of sigma_blocks, and whether the stream ended."""
    out = []
    for a, b in sigma_blocks(F, SplitMix64(seed), max_draws):
        out += map(SigmaPair, a.tolist(), b.tolist())
        if len(out) >= n:
            return out[:n], False
    return out, True


def oracle_pairs(F, seed, max_draws, n):
    """The first n Sigma pairs of the scalar loop, whether it ended, and the draw
    index where the run of misses that ended it began."""
    out, start = [], 0
    for pair, draws in scalar_sigma_pairs(F, SplitMix64(seed), max_draws):
        if pair is None:
            return out, True, start
        out.append(pair)
        start = draws
        if len(out) == n:
            return out, False, None


@pytest.mark.parametrize("q", [5, 13, 27, 125, 1009, 2187, 10009])
def test_sigma_blocks_match_scalar_loop(q):
    F = field(q)
    for seed in range(3):
        want, ended, _ = oracle_pairs(F, seed, 200, 600)
        assert block_pairs(F, seed, 200, 600) == (want, ended)
        assert ended == (q == 5)


def test_sigma_blocks_exhaust_where_the_scalar_loop_does():
    # at q = 13 a draw lands in Sigma with probability 20/121, so short budgets
    # run out; budget 20 runs out after a few hundred draws, and in some seeds the
    # final run of misses spans the edge between two blocks
    F = field(13)
    edges = np.cumsum(np.minimum(SAMPLE_BLOCK * 2 ** np.arange(20), 4 * PAIR_BLOCK))
    straddles = 0
    for max_draws in (1, 2, 3, 20):
        for seed in range(100):
            want, ended, start = oracle_pairs(F, seed, max_draws, 10**6)
            assert ended
            assert block_pairs(F, seed, max_draws, 10**6) == (want, True)
            straddles += bool(((start < edges) & (edges < start + max_draws)).any())
    assert straddles > 0


@pytest.mark.parametrize("m", [1, 3, 10007, 1 << 32, 1 << 63, (1 << 63) + 1,
                               (1 << 63) + (1 << 62), (1 << 64) - 1, 1 << 64])
def test_below_block_matches_below(m):
    # above 2^63 nearly half of all u64 values are rejected
    for seed in (0, 11, (1 << 64) - 1):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        for n in (0, 1, 5, 300):
            assert block.below_block(n, m).tolist() == [scalar.below(m) for _ in range(n)]
            assert block.state == scalar.state
    with pytest.raises(ValueError):
        SplitMix64(0).below_block(4, 0)


@pytest.mark.parametrize("m", [0, -1, (1 << 64) + 1, 1 << 70])
def test_bounds_outside_1_to_2_64_are_refused(m):
    # above 2^64, below() would keep no draw and below_block() none either
    rng = SplitMix64(5)
    with pytest.raises(ValueError, match=re.escape("needs n >= 1 and n <= 2^64")):
        rng.below(m)
    with pytest.raises(ValueError, match=re.escape("needs m >= 1 and m <= 2^64")):
        rng.below_block(4, m)
    assert rng.state == SplitMix64(5).state


# (a, b, attempts) of search_mna(F, seed) for seeds 0-4, when each attempt was
# decided by method Bscaled
PINNED_SEARCHES = {
    1009: [(170, 438, 3), (260, 801, 5), (141, 260, 3), (398, 150, 6), (163, 76, 4)],
    2187: [(898, 1510, 13), (30, 1493, 10), (662, 878, 9), (1170, 1786, 37), (98, 1603, 43)],
    10007: [(5723, 3196, 3), (6307, 7525, 7), (8494, 648, 81), (8920, 8279, 9), (4695, 2649, 3)],
}


@pytest.mark.parametrize("q", sorted(PINNED_SEARCHES))
def test_search_outputs_pinned(q):
    F = field(q)
    got = [search_mna(F, seed) for seed in range(5)]
    assert [(c.a, c.b, c.attempts) for c in got] == PINNED_SEARCHES[q]
    assert all(c.methods == ("Bscaled", "C") and verify_certificate(F, c) for c in got)


def test_search_exhausts_on_sigma_free_field():
    with pytest.raises(SearchExhausted):
        search_mna(field(5), seed=1, max_attempts=10)


def test_search_exhausts_when_sigma_has_no_mna():
    # sigma(11) = 0, so any attempt budget runs out
    with pytest.raises(SearchExhausted):
        search_mna(field(11), seed=3, max_attempts=25)


def test_search_spends_exactly_its_attempts():
    # the budget cuts a block of attempts at its last attempt
    F = field(10007)
    cert = search_mna(F, seed=2)
    assert (cert.a, cert.b, cert.attempts) == (8494, 648, 81)
    assert search_mna(F, seed=2, max_attempts=81) == cert
    with pytest.raises(SearchExhausted, match="in 80 attempts at q=10007"):
        search_mna(F, seed=2, max_attempts=80)
    with pytest.raises(SearchExhausted, match="in 25 attempts at q=11"):
        search_mna(field(11), seed=3, max_attempts=25)


@pytest.mark.parametrize("max_attempts", [0, -1])
def test_search_without_attempts_decides_no_pair(monkeypatch, max_attempts):
    import mnaq.search

    decided = []
    monkeypatch.setattr(mnaq.search, "is_mna_C_vec",
                        lambda F, a, b: decided.append(len(a)))
    with pytest.raises(SearchExhausted, match="in 0 attempts at q=13"):
        search_mna(field(13), seed=1, max_attempts=max_attempts)
    assert decided == []


def test_sample_stats_edge_cases():
    assert mna_sample_stats(field(13), 0, seed=4) == (0, 0)
    assert mna_sample_stats(field(5), 0, seed=4) == (0, 0)
    with pytest.raises(SearchExhausted):
        mna_sample_stats(field(5), 10, seed=4)


def test_verify_certificate_rejects_wrong_field():
    F = field(13)
    cert = search_mna(F, seed=7)
    assert not verify_certificate(field(17), cert)
    bogus = SearchCertificate(13, 2, 11, ("Bscaled",), 0, 1)  # known non-MNA pair
    assert not verify_certificate(F, bogus)


def test_sample_stats_matches_exact_rate():
    # exact rate at q = 13 is 10/20; 3 binomial sigmas around p over n samples
    F = field(13)
    hits, n = mna_sample_stats(F, 2000, seed=99)
    p = 0.5
    assert abs(hits / n - p) <= 3 * (p * (1 - p) / n) ** 0.5
