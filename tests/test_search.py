import re

import pytest

from mnaq.assoc import is_mna_B, is_mna_Bscaled
from mnaq.errors import SearchExhausted, VerificationFailure
from mnaq.quasigroup import SigmaPair, is_sigma_pair
from mnaq.rng import SplitMix64
from mnaq.search import (
    SearchCertificate,
    mna_sample_stats,
    sample_sigma_pair,
    search_mna,
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
    monkeypatch.setattr(mnaq.search, "is_mna_C", lambda F, pair: True)
    with pytest.raises(VerificationFailure, match=re.escape(str(pair))):
        search_mna(F, seed=seed)


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
