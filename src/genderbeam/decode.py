"""Standard and lattice-constrained beam search over pluggable scoring models.

Scoring is length-unnormalized: a hypothesis's log likelihood is the sum of
its per-token scores plus one end-of-sequence score, whether the model closed
it or the length cap forced it shut. Hypotheses that finish early keep their
beam slot and compete with open ones on total score. Ties break
lexicographically by token sequence so runs are reproducible everywhere.

Both passes run one beam loop. The constrained pass compiles its lattice into
a token automaton first and restricts each item's children to the moves of
its automaton state; items with the same score and tokens then break ties by
state. The loop prunes exactly: a child scoring strictly below the k-th best
is never built; order and ties are unchanged. The comparison is on the same
float sum the child would carry, so children that tie the k-th best after
rounding are still built and ranked by tokens.

Until a step holds width candidates nothing can be pruned, so the k-th best
scores are kept in a plain list and turned into a heap only once it is full.
The unconstrained pass ranks a step map by descending score when it comes
back within a search, and from then on walks an item's children in that
order, stopping at the first one below the k-th best: float addition is
monotone and the threshold only rises, so no later child could be kept. A
map seen for the first time is walked in map order; the search holds the
width latest of those to notice one coming back. So a scorer that builds a
new map on every call pays for no sort. The constrained pass walks its moves
in lattice order.
"""

from __future__ import annotations

import heapq
import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DecodeError, FormatError
from .lattice import HypothesisLattice, compose_lattice
from .morpho import GenderLexicon, ReinflectionPairSet, read_rows, read_sentences
from .segment import Segmenter, WholeWordSegmenter

BOS = "<s>"
EOS = "</s>"
DEFAULT_FLOOR = -20.0


def _check_logprob(value: float, where: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value > 0:
        raise ValueError(f"{where}: log probability must be finite and <= 0, got {value}")
    return value


def _parse_logprob(text: str, path, lineno: int) -> float:
    try:
        return _check_logprob(float(text), f"{path}:{lineno}")
    except ValueError as exc:
        raise FormatError(f"{path}:{lineno}: bad logprob {text!r}") from exc


class ScoringModel(ABC):
    """Pluggable per-step scorer.

    A scorer implements next_scores and floor, and search and rescore read
    nothing else. next_scores returns a finite token -> log probability map
    for one step; it may include EOS. Tokens outside the map score the
    model's floor. Implementations must be deterministic for identical
    inputs. A returned map must not change afterwards: a search may rank it
    once and reuse that ranking whenever the same map comes back.
    """

    floor: float = DEFAULT_FLOOR

    @abstractmethod
    def next_scores(self, source: Sequence[str], prefix: Sequence[str]) -> Mapping[str, float]:
        raise NotImplementedError


class TableModel(ScoringModel):
    """Exact-match lookup scorer for deterministic tests.

    Keys are space-joined token sequences; the empty prefix is keyed as BOS.
    Unknown (source, prefix) keys yield an empty map, so unlisted
    continuations score the floor only through forced decoding.
    """

    def __init__(
        self,
        entries: Mapping[tuple[str, str], Mapping[str, float]],
        floor: float = DEFAULT_FLOOR,
    ) -> None:
        table: dict[tuple[str, str], dict[str, float]] = {}
        for (source_key, prefix_key), scores in entries.items():
            checked = {
                token: _check_logprob(lp, f"table entry ({source_key!r}, {prefix_key!r}, {token!r})")
                for token, lp in scores.items()
            }
            table[(source_key, prefix_key)] = checked
        self._table = table
        self.floor = float(floor)

    @classmethod
    def from_file(cls, path: str | Path, floor: float = DEFAULT_FLOOR) -> "TableModel":
        """Parse lines `source_key ||| prefix_key ||| token ||| logprob`."""
        entries: dict[tuple[str, str], dict[str, float]] = {}
        for lineno, (source_key, prefix_key, token, raw_lp) in read_rows(path, " ||| ", 4, FormatError):
            entries.setdefault((source_key, prefix_key), {})[token] = _parse_logprob(raw_lp, path, lineno)
        return cls(entries, floor=floor)

    def next_scores(self, source: Sequence[str], prefix: Sequence[str]) -> Mapping[str, float]:
        prefix_key = " ".join(prefix) if prefix else BOS
        return self._table.get((" ".join(source), prefix_key), {})


class NoisyChannelToy(ScoringModel):
    """Lexical table + add-one-smoothed target bigram scorer.

    score(t) = max over source tokens of lexical logprob(t) plus the smoothed
    bigram logprob of t given the last prefix token. Targets with no lexical
    support under any source token are left out of the map and hence floor.
    EOS is scored by the bigram term alone.
    """

    def __init__(
        self,
        lexical: Mapping[str, Mapping[str, float]],
        corpus: Iterable[Sequence[str]],
        floor: float = DEFAULT_FLOOR,
    ) -> None:
        self._lexical: dict[str, dict[str, float]] = {
            source: {
                target: _check_logprob(lp, f"lexical entry ({source!r}, {target!r})")
                for target, lp in targets.items()
            }
            for source, targets in lexical.items()
        }
        # followers[prev][token] counts the bigram (prev, token)
        followers: dict[str, dict[str, int]] = {}
        vocab: set[str] = set()
        for line in corpus:
            prev = BOS
            for token in line:
                vocab.add(token)
                row = followers.get(prev)
                if row is None:
                    row = followers[prev] = {}
                row[token] = row.get(token, 0) + 1
                prev = token
            row = followers.get(prev)
            if row is None:
                row = followers[prev] = {}
            row[EOS] = row.get(EOS, 0) + 1
        self._followers = followers
        self._contexts = {prev: sum(row.values()) for prev, row in followers.items()}
        # +1 for the EOS event, which shares the smoothing mass
        self._smoothing_vocab = len(vocab) + 1
        self.floor = float(floor)
        # only the current source is cached: its best lexical logprob per
        # target, and its step maps keyed by the last prefix token, which is
        # all a step depends on
        self._step_source: tuple[str, ...] | None = None
        self._best: dict[str, float] = {}
        self._step_cache: dict[str, dict[str, float]] = {}

    @classmethod
    def from_files(cls, lexical_path: str | Path, corpus_path: str | Path,
                   floor: float = DEFAULT_FLOOR) -> "NoisyChannelToy":
        """Lexical TSV `src<TAB>tgt<TAB>logprob` plus a plain-text target corpus."""
        lexical: dict[str, dict[str, float]] = {}
        for lineno, (source, target, raw_lp) in read_rows(lexical_path, "\t", 3, FormatError):
            lexical.setdefault(source, {})[target] = _parse_logprob(raw_lp, lexical_path, lineno)
        return cls(lexical, filter(None, read_sentences(corpus_path)), floor=floor)

    def bigram_logprob(self, prev: str, token: str) -> float:
        count = self._followers.get(prev, {}).get(token, 0)
        context = self._contexts.get(prev, 0)
        return math.log((count + 1) / (context + self._smoothing_vocab))

    def next_scores(self, source: Sequence[str], prefix: Sequence[str]) -> Mapping[str, float]:
        if source is not self._step_source:
            source = tuple(source)
            if source != self._step_source:
                best: dict[str, float] = {}
                for token in source:
                    for target, lp in self._lexical.get(token, {}).items():
                        if target not in best or lp > best[target]:
                            best[target] = lp
                self._best, self._step_cache = best, {}
            self._step_source = source
        prev = prefix[-1] if prefix else BOS
        cached = self._step_cache.get(prev)
        if cached is None:
            cached = self._step_cache[prev] = self._build_step(prev)
        return cached

    def _build_step(self, prev: str) -> dict[str, float]:
        """The current source's step map after prev. Each value is the float
        expression bigram_logprob computes, with the context's denominator
        and the unseen-bigram log taken once."""
        best = self._best
        row = self._followers.get(prev, {})
        denom = self._contexts.get(prev, 0) + self._smoothing_vocab
        unseen = math.log(1 / denom)
        step = {target: lp + unseen for target, lp in best.items()}
        for target, count in row.items():
            if target in step:
                step[target] = best[target] + math.log((count + 1) / denom)
        step[EOS] = math.log((row.get(EOS, 0) + 1) / denom)
        return step


class Hypothesis(NamedTuple):
    tokens: tuple[str, ...]
    loglik: float


class NBestList:
    """Hypotheses for one source sentence, log likelihood non-increasing.

    Construction re-sorts stably, so equal scores keep the caller's order.
    """

    def __init__(self, source_id: int, hypotheses: Iterable[Hypothesis]) -> None:
        hyps = [Hypothesis(tuple(tokens), float(loglik)) for tokens, loglik in hypotheses]
        hyps.sort(key=lambda h: -h.loglik)
        self._source_id = int(source_id)
        self._hypotheses = tuple(hyps)

    @property
    def source_id(self) -> int:
        return self._source_id

    @property
    def hypotheses(self) -> tuple[Hypothesis, ...]:
        return self._hypotheses

    def __len__(self) -> int:
        return len(self._hypotheses)

    def __iter__(self) -> Iterator[Hypothesis]:
        return iter(self._hypotheses)

    def __getitem__(self, index: int) -> Hypothesis:
        return self._hypotheses[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NBestList):
            return NotImplemented
        return self._source_id == other._source_id and self._hypotheses == other._hypotheses

    def __hash__(self) -> int:
        return hash((self._source_id, self._hypotheses))

    def __repr__(self) -> str:
        return f"NBestList(source_id={self._source_id}, {len(self._hypotheses)} hypotheses)"


@dataclass(frozen=True)
class BeamConfig:
    beam_width: int
    nbest: int | None = None
    max_len: int = 128

    def __post_init__(self) -> None:
        if self.beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {self.beam_width}")
        nbest = self.beam_width if self.nbest is None else self.nbest
        if not 1 <= nbest <= self.beam_width:
            raise ValueError(f"nbest must be in [1, beam_width], got {nbest}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")
        object.__setattr__(self, "nbest", nbest)


def beam_search(
    model: ScoringModel,
    source: Sequence[str],
    cfg: BeamConfig,
    source_id: int = 0,
) -> NBestList:
    """Length-unnormalized beam search; returns the top-nbest closed hypotheses."""
    return _search(model, source, cfg, source_id)


def constrained_beam_search(
    model: ScoringModel,
    source: Sequence[str],
    lattice: HypothesisLattice,
    cfg: BeamConfig,
    source_id: int = 0,
) -> NBestList:
    """Beam search expanding only along lattice paths.

    Inside an arc each model token is forced but still scored by the model,
    so constrained and unconstrained log likelihoods stay comparable. Items
    reaching the final state close by the model's EOS score.
    """
    return _search(model, source, cfg, source_id, _lattice_moves(lattice))


_Moves = list[tuple[tuple[str, int], ...]]


def _lattice_moves(lattice: HypothesisLattice) -> _Moves:
    """Compile a lattice into a token automaton: moves[state] lists
    (token, next_state) in arc order.

    Each lattice state is an automaton state, followed by one state per
    token already emitted inside each of its multi-token arcs, so state ids
    increase in (lattice state, arc index, offset) order. The last state is
    the final one; its only move is EOS, back to itself.
    """
    moves: _Moves = []
    for position in range(lattice.num_positions):
        arcs = lattice.arcs_at(position)
        boundary = len(moves)
        after = boundary + 1 + sum(len(arc.model_tokens) - 1 for arc in arcs)
        moves.append(())
        first = []
        for arc in arcs:
            tokens = arc.model_tokens
            first.append((tokens[0], len(moves) if len(tokens) > 1 else after))
            for offset in range(1, len(tokens)):
                moves.append(((tokens[offset], len(moves) + 1 if offset + 1 < len(tokens) else after),))
        moves[boundary] = tuple(first)
    moves.append(((EOS, len(moves)),))
    return moves


def _search(
    model: ScoringModel,
    source: Sequence[str],
    cfg: BeamConfig,
    source_id: int,
    moves: _Moves | None = None,
) -> NBestList:
    """The beam loop of both passes.

    Without moves every token of the step map is a child, and open items at
    max_len are carried, then closed by their EOS score. With moves an item
    expands only by its state's moves, reading tokens outside the step map
    at the floor; an item at max_len outside the final state is dropped.
    """
    source = tuple(source)
    if not source:
        raise DecodeError(f"source {source_id}: source sentence is empty")
    width, max_len, floor = cfg.beam_width, cfg.max_len, model.floor
    final = -1 if moves is None else len(moves) - 1
    # this search's step maps by id. A map seen once is held in seen, the
    # width latest of them; one that comes back moves to ranked, held with
    # its items by descending score for the rest of the search. Holding a
    # map keeps its id from being reused while the id is a key
    seen: dict[int, Mapping[str, float]] = {}
    ranked: dict[int, tuple[Mapping[str, float], list[tuple[str, float]]]] = {}
    # an item is (-score, tokens, is_open, state), so tuple order is beam
    # order: higher score first, ties lexicographic by tokens, closed before
    # open, then by automaton state (always 0 without moves)
    beam: list[tuple[float, tuple[str, ...], bool, int]] = [(-0.0, (), True, 0)]
    while True:
        candidates, expand = [], []
        for item in beam:
            _, tokens, is_open, state = item
            if not is_open or (moves is None and len(tokens) >= max_len):
                candidates.append(item)
            elif len(tokens) < max_len or state == final:
                expand.append(item)
            # else mid-lattice at the length cap: cannot become a complete path
        if len(candidates) == len(beam):
            break  # every item is carried: nothing is left to expand or drop
        # the scores of the width best candidates built so far: a plain list
        # with no threshold until it holds width of them (the carried items
        # are at most width), then a min-heap whose root is the threshold; a
        # child strictly below it is never built
        best = [-neg for neg, _, _, _ in candidates]
        room = width - len(best)
        threshold = -math.inf
        if not room:
            heapq.heapify(best)
            threshold = best[0]
        # the three walks below differ only in where the children come from
        # and in whether a child below the threshold ends the walk. Each
        # writes out the bookkeeping for a kept child: one loop for both
        # passes measured slower, and one loop for both unconstrained walks
        # would test on every skipped child of a map that never comes back
        for neg, tokens, _, state in expand:
            scores = model.next_scores(source, tokens)
            base = -neg
            if moves is not None:
                for token, to_state in moves[state]:
                    score = base + scores.get(token, floor)
                    if score < threshold:
                        continue
                    if state == final:
                        candidates.append((-score, tokens, False, state))
                    else:
                        candidates.append((-score, tokens + (token,), True, to_state))
                    if room:
                        best.append(score)
                        room -= 1
                        if room:
                            continue
                        heapq.heapify(best)
                    else:
                        heapq.heappushpop(best, score)
                    threshold = best[0]
                continue
            key = id(scores)
            entry = ranked.get(key)
            if entry is None and seen.pop(key, None) is None:
                # first sight: walk in map order, since a map that never
                # comes back is not worth a sort
                if len(seen) == width:
                    del seen[next(iter(seen))]
                seen[key] = scores
                for token, lp in scores.items():
                    score = base + lp
                    if score < threshold:
                        continue
                    if token == EOS:
                        candidates.append((-score, tokens, False, 0))
                    else:
                        candidates.append((-score, tokens + (token,), True, 0))
                    if room:
                        best.append(score)
                        room -= 1
                        if room:
                            continue
                        heapq.heapify(best)
                    else:
                        heapq.heappushpop(best, score)
                    threshold = best[0]
                continue
            if entry is None:
                entry = ranked[key] = (
                    scores, sorted(scores.items(), key=operator.itemgetter(1), reverse=True))
            for token, lp in entry[1]:
                score = base + lp
                if score < threshold:
                    break  # every later child scores no more
                if token == EOS:
                    candidates.append((-score, tokens, False, 0))
                else:
                    candidates.append((-score, tokens + (token,), True, 0))
                if room:
                    best.append(score)
                    room -= 1
                    if room:
                        continue
                    heapq.heapify(best)
                else:
                    heapq.heappushpop(best, score)
                threshold = best[0]
        candidates.sort()
        beam = candidates[:width]
    finished = sorted(
        (-(-neg + model.next_scores(source, tokens).get(EOS, floor)), tokens, False, state) if is_open
        else (neg, tokens, False, state)
        for neg, tokens, is_open, state in beam
    )
    if not finished:
        if moves is not None:
            raise DecodeError(
                f"source {source_id}: constrained beam exhausted before reaching the final lattice state"
            )
        raise DecodeError(f"source {source_id}: no completed hypothesis within max_len {cfg.max_len}")
    return NBestList(source_id, [Hypothesis(tokens, -neg) for neg, tokens, _, _ in finished[: cfg.nbest]])


def two_pass_decode(
    model: ScoringModel,
    source: Sequence[str],
    pairs: ReinflectionPairSet,
    cfg_first: BeamConfig,
    cfg_second: BeamConfig,
    lexicon: GenderLexicon | None = None,
    source_id: int = 0,
    *,
    segmenter: Segmenter | None = None,
) -> NBestList:
    """First pass 1-best -> lattice of its gendered variants -> constrained pass."""
    segmenter = segmenter if segmenter is not None else WholeWordSegmenter()
    first = beam_search(model, source, cfg_first, source_id=source_id)
    if not first[0].tokens:
        raise DecodeError(f"source {source_id}: first-pass 1-best is empty")
    words = segmenter.words(first[0].tokens)
    variants = compose_lattice(pairs, words, segmenter=segmenter, lexicon=lexicon)
    return constrained_beam_search(model, source, variants, cfg_second, source_id=source_id)


def rescore(model: ScoringModel, source: Sequence[str], tokens: Sequence[str]) -> float:
    """Independent sum-of-steps score of a complete hypothesis, EOS included."""
    source = tuple(source)
    prefix: tuple[str, ...] = ()
    total = 0.0
    for token in (*tokens, EOS):
        total += model.next_scores(source, prefix).get(token, model.floor)
        prefix = (*prefix, token)
    return total
