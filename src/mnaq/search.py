"""Seeded random search for maximally nonassociative parameter pairs.

Sampling is rejection from uniform (a, b) in (F_q \\ {0, 1})^2, accepted when
the pair lands in Sigma (acceptance rate is about 1/4).  One attempt is one
Sigma member tested for maximal nonassociativity, decided by method C; only the
first pair C accepts is confirmed by method Bscaled, the direct scan of the
associativity equation.  Raw draws are capped so the search terminates even
when Sigma is empty (q in {3, 5}).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .assoc import is_mna_Bscaled, is_mna_C, sigma_count
from .errors import SearchExhausted, VerificationFailure
from .field import Field
from .quasigroup import SigmaPair, is_sigma_pair, sigma_cardinality
from .rng import SplitMix64


@dataclass(frozen=True)
class SearchCertificate:
    q: int
    a: int
    b: int
    methods: tuple[str, ...]
    seed: int
    attempts: int

    def to_dict(self) -> dict:
        d = asdict(self)
        d["methods"] = list(self.methods)
        return d


def sample_sigma_pair(F: Field, rng: SplitMix64, max_draws: int) -> SigmaPair | None:
    """One uniform Sigma member by rejection, or None if draws run out."""
    span = F.q - 2
    for _ in range(max_draws):
        a = 2 + rng.below(span)
        b = 2 + rng.below(span)
        if is_sigma_pair(F, a, b):
            return SigmaPair(a, b)
    return None


def search_mna(
    F: Field,
    seed: int,
    max_attempts: int = 10_000,
) -> SearchCertificate:
    """First sampled Sigma pair that is maximally nonassociative, decided by
    method C and confirmed by method Bscaled (VerificationFailure if they differ)."""
    rng = SplitMix64(seed)
    draw_budget = 64 * max_attempts + 64
    attempts = 0
    if sigma_cardinality(F.q) > 0:
        while attempts < max_attempts:
            pair = sample_sigma_pair(F, rng, draw_budget)
            if pair is None:
                break
            attempts += 1
            if is_mna_C(F, pair):
                if not is_mna_Bscaled(F, pair):
                    raise VerificationFailure(
                        f"{pair} passes method C but fails method Bscaled at q={F.q}")
                return SearchCertificate(
                    F.q, pair.a, pair.b, ("Bscaled", "C"), seed, attempts
                )
    raise SearchExhausted(
        f"no maximally nonassociative pair in {attempts} attempts at q={F.q}"
    )


def verify_certificate(F: Field, cert: SearchCertificate) -> bool:
    """Re-verify a loaded certificate: pair membership, then method Bscaled, the
    direct scan of the associativity equation."""
    if cert.q != F.q or not is_sigma_pair(F, cert.a, cert.b):
        return False
    return is_mna_Bscaled(F, SigmaPair(cert.a, cert.b))


def mna_sample_stats(F: Field, n_samples: int, seed: int) -> tuple[int, int]:
    """(hits, samples): MNA frequency over seeded Sigma samples, via method C."""
    rng = SplitMix64(seed)
    draw_budget = 64 * n_samples + 64
    pairs = []
    for _ in range(n_samples):
        pair = sample_sigma_pair(F, rng, draw_budget)
        if pair is None:
            raise SearchExhausted(f"Sigma sampling failed at q={F.q}")
        pairs.append(pair)
    return sigma_count(F, "C", pairs=pairs), n_samples
