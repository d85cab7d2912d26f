"""Seeded random search for maximally nonassociative parameter pairs.

Sampling is rejection from uniform (a, b) in (F_q \\ {0, 1})^2, accepted when
the pair lands in Sigma (about 1/4 of draws), in blocks of the SplitMix64 stream
that yield the same pairs as one draw at a time.  One attempt is one Sigma member
tested for maximal nonassociativity: method C decides a block of attempts at once,
and method Bscaled, the direct scan of the associativity equation, confirms only
the first pair C accepts.  Misses in a row are capped so the search terminates
even when Sigma is empty (q in {3, 5}).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .assoc import PAIR_BLOCK, is_mna_Bscaled, is_mna_C_vec, sigma_count
from .assoc import is_mna_C  # noqa: F401  (unused; perfbench's traced pass wraps it by name)
from .errors import SearchExhausted, VerificationFailure
from .field import Field
from .quasigroup import SigmaPair, is_sigma_pair, sigma_cardinality, sigma_mask
from .rng import SplitMix64

SAMPLE_BLOCK = 128  # (a, b) draws in the first block of sigma_blocks


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


def sigma_blocks(F: Field, rng: SplitMix64, max_draws: int) -> Iterator[np.ndarray]:
    """The Sigma members among rng's uniform pairs in (F_q \\ {0, 1})^2 in order, as
    (2, k) blocks (a, b) of SAMPLE_BLOCK draws, then twice as many each time up to
    4 * PAIR_BLOCK; the stream ends once max_draws draws in a row miss Sigma."""
    run, size = 0, SAMPLE_BLOCK  # misses since the last Sigma member, draws per block
    while True:
        pairs = 2 + rng.below_block(2 * size, F.q - 2).reshape(-1, 2).T
        hits = np.flatnonzero(sigma_mask(F, *pairs))
        # misses in a row before each hit, and before the end of the block
        runs = np.diff(hits, prepend=-1, append=size) - 1
        runs[0] += run
        over = runs >= max_draws
        yield pairs[:, hits[:over.argmax() if over.any() else hits.size]]
        if over.any():
            return
        run, size = runs[-1], min(2 * size, 4 * PAIR_BLOCK)


def sample_sigma_pair(F: Field, rng: SplitMix64, max_draws: int) -> SigmaPair | None:
    """One uniform Sigma member, or None if draws run out: the first pair of
    sigma_blocks, which moves rng on by whole blocks."""
    return next((SigmaPair(int(a[0]), int(b[0]))
                 for a, b in sigma_blocks(F, rng, max_draws) if a.size), None)


def search_mna(
    F: Field,
    seed: int,
    max_attempts: int = 10_000,
) -> SearchCertificate:
    """First sampled Sigma pair that is maximally nonassociative, decided by
    method C and confirmed by method Bscaled (VerificationFailure if they differ)."""
    attempts = 0
    if sigma_cardinality(F.q) > 0:
        for a, b in sigma_blocks(F, SplitMix64(seed), 64 * max_attempts + 64):
            if attempts >= max_attempts:
                break
            a, b = a[:max_attempts - attempts], b[:max_attempts - attempts]
            mna = np.flatnonzero(is_mna_C_vec(F, a, b))
            attempts += int(mna[0]) + 1 if mna.size else a.size
            if mna.size:
                pair = SigmaPair(int(a[mna[0]]), int(b[mna[0]]))
                if not is_mna_Bscaled(F, pair):
                    raise VerificationFailure(
                        f"{pair} passes method C but fails method Bscaled at q={F.q}")
                return SearchCertificate(F.q, pair.a, pair.b, ("Bscaled", "C"), seed, attempts)
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
    blocks = sigma_blocks(F, SplitMix64(seed), 64 * n_samples + 64)
    pairs, drawn = [np.zeros((2, 0), dtype=np.int64)], 0
    while drawn < n_samples:
        pairs.append(next(blocks, None))
        if pairs[-1] is None:
            raise SearchExhausted(f"Sigma sampling failed at q={F.q}")
        drawn += pairs[-1].shape[1]
    return sigma_count(F, "C", pairs=np.concatenate(pairs, axis=1)[:, :n_samples].T), n_samples
