"""Shared test scaffolding: deterministic scorers and brute-force oracles."""

import hashlib
import itertools
from typing import NamedTuple

from genderbeam.decode import EOS, Hypothesis, NBestList, ScoringModel, rescore
from genderbeam.errors import DecodeError
from genderbeam.evaluation import run_pipeline, score_records
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


class _LatticeItem(NamedTuple):
    tokens: tuple
    score: float
    closed: bool
    state: int
    arc_index: int  # -1 at a state boundary, else index into arcs_at(state)
    offset: int     # arc tokens already emitted


def _lattice_item_key(item):
    return (-item.score, item.tokens, not item.closed, item.state, item.arc_index, item.offset)


def reference_constrained_beam_search(model, source, lattice, cfg, source_id=0):
    """Full-sort reference for constrained_beam_search: items walk the arcs
    with (state, arc_index, offset) sub-state, each child is scored with
    score_token, and all candidates are sorted by a key function."""
    source = tuple(source)
    if not source:
        raise DecodeError(f"source {source_id}: source sentence is empty")
    model.prepare_source(source)
    final_state = lattice.final_state
    beam = [_LatticeItem((), 0.0, False, 0, -1, 0)]
    while beam and any(not it.closed for it in beam):
        candidates = []
        for item in beam:
            if item.closed:
                candidates.append(item)
                continue
            at_final = item.state == final_state and item.arc_index < 0
            if at_final:
                lp = model.score_token(source, item.tokens, EOS)
                candidates.append(item._replace(score=item.score + lp, closed=True))
                continue
            if len(item.tokens) >= cfg.max_len:
                continue  # mid-lattice at the length cap: cannot become a complete path
            if item.arc_index >= 0:
                arc = lattice.arcs_at(item.state)[item.arc_index]
                token = arc.model_tokens[item.offset]
                lp = model.score_token(source, item.tokens, token)
                tokens = (*item.tokens, token)
                if item.offset + 1 == len(arc.model_tokens):
                    candidates.append(_LatticeItem(tokens, item.score + lp, False, arc.to_state, -1, 0))
                else:
                    candidates.append(
                        _LatticeItem(tokens, item.score + lp, False, item.state, item.arc_index, item.offset + 1)
                    )
                continue
            for arc_index, arc in enumerate(lattice.arcs_at(item.state)):
                token = arc.model_tokens[0]
                lp = model.score_token(source, item.tokens, token)
                tokens = (*item.tokens, token)
                if len(arc.model_tokens) == 1:
                    candidates.append(_LatticeItem(tokens, item.score + lp, False, arc.to_state, -1, 0))
                else:
                    candidates.append(_LatticeItem(tokens, item.score + lp, False, item.state, arc_index, 1))
        candidates.sort(key=_lattice_item_key)
        beam = candidates[: cfg.beam_width]
    closed = sorted((it for it in beam if it.closed), key=_lattice_item_key)
    if not closed:
        raise DecodeError(
            f"source {source_id}: constrained beam exhausted before reaching the final lattice state"
        )
    return NBestList(source_id, [Hypothesis(it.tokens, it.score) for it in closed[: cfg.nbest]])


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


def pipeline_report(*args, **kwargs):
    """score_records over the records of run_pipeline(*args, **kwargs)."""
    return score_records([outcome.record for outcome in run_pipeline(*args, **kwargs)])
