"""Shared test scaffolding: deterministic scorers and brute-force oracles."""

import hashlib
import itertools

from genderbeam.decode import EOS, Hypothesis, NBestList, ScoringModel, rescore
from genderbeam.errors import DecodeError
from genderbeam.lattice import HypothesisLattice, LatticeArc


class HashScorer(ScoringModel):
    """Deterministic pseudo-random scorer over a fixed vocabulary.

    Log probabilities are derived from the md5 digest of (source, prefix,
    token), so scores are stable across runs and platforms with no RNG state.
    """

    def __init__(self, vocab, include_eos=True, floor=-20.0):
        self.vocab = tuple(vocab)
        self.include_eos = include_eos
        self.floor = floor

    def _logprob(self, source, prefix, token):
        key = "\x1f".join(["\x1e".join(source), "\x1e".join(prefix), token])
        digest = hashlib.md5(key.encode("utf-8")).digest()
        return -5.0 * (int.from_bytes(digest[:8], "big") / 2**64)

    def next_scores(self, source, prefix):
        source, prefix = tuple(source), tuple(prefix)
        tokens = self.vocab + ((EOS,) if self.include_eos else ())
        return {token: self._logprob(source, prefix, token) for token in tokens}


def realizations(lattice):
    """Model-token realizations of every lattice path, enumeration order."""
    per_position = (lattice.arcs_at(i) for i in range(lattice.num_positions))
    for combo in itertools.product(*per_position):
        yield tuple(token for arc in combo for token in arc.model_tokens)


def oracle_nbest(model, source, lattice, nbest):
    """Enumerate-and-score reference for constrained beam search."""
    scored = [Hypothesis(tokens, rescore(model, source, tokens)) for tokens in realizations(lattice)]
    scored.sort(key=lambda h: (-h.loglik, h.tokens))
    return scored[:nbest]


def reference_beam_search(model, source, cfg, source_id=0):
    """Full-sort reference for beam_search: every child of every parent is
    built, all of them are sorted by (-score, tokens, open), the first
    beam_width kept."""

    def key(item):
        tokens, score, closed = item
        return (-score, tokens, not closed)

    source = tuple(source)
    if not source:
        raise DecodeError(f"source {source_id}: source sentence is empty")
    model.prepare_source(source)
    beam = [((), 0.0, False)]
    while beam and any(not closed and len(tokens) < cfg.max_len for tokens, _, closed in beam):
        candidates = []
        for tokens, score, closed in beam:
            if closed or len(tokens) >= cfg.max_len:
                candidates.append((tokens, score, closed))
                continue
            for token, lp in model.next_scores(source, tokens).items():
                if token == EOS:
                    candidates.append((tokens, score + lp, True))
                else:
                    candidates.append(((*tokens, token), score + lp, False))
        candidates.sort(key=key)
        beam = candidates[: cfg.beam_width]
    finished = [
        (tokens, score, True) if closed
        else (tokens, score + model.score_token(source, tokens, EOS), True)
        for tokens, score, closed in beam
    ]
    finished.sort(key=key)
    if not finished:
        raise DecodeError(f"source {source_id}: no completed hypothesis within max_len {cfg.max_len}")
    return NBestList(source_id, [Hypothesis(tokens, score) for tokens, score, _ in finished[: cfg.nbest]])


def random_lattice(rng, max_positions=4, max_arcs=3, multi_token=True):
    """Small random linear-chain lattice with unique words per position."""
    arcs = []
    for position in range(rng.randint(1, max_positions)):
        for variant in range(rng.randint(1, max_arcs)):
            word = f"w{position}v{variant}"
            if multi_token and rng.random() < 0.3:
                tokens = (f"{word}@@", rng.choice(("x", "y")))
            else:
                tokens = (word,)
            arcs.append(LatticeArc(position, position + 1, word, tokens))
    return HypothesisLattice(arcs)
