"""Standard and lattice-constrained beam search over pluggable scoring models.

Scoring is length-unnormalized: a hypothesis's log likelihood is the sum of
its per-token scores plus one end-of-sequence score, whether the model closed
it or the length cap forced it shut. Hypotheses that finish early keep their
beam slot and compete with open ones on total score. Ties break
lexicographically by token sequence so runs are reproducible everywhere.

The unconstrained search prunes exactly: a child scoring strictly below the
k-th best is never built; order and ties are unchanged. The comparison is on
the same float sum the child would carry, so children that tie the k-th best
after rounding are still built and ranked by tokens.
"""

from __future__ import annotations

import heapq
import math
import unicodedata
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DecodeError, FormatError
from .lattice import HypothesisLattice, compose_lattice
from .morpho import GenderLexicon, ReinflectionPairSet
from .segment import Segmenter, WholeWordSegmenter

BOS = "<s>"
EOS = "</s>"
DEFAULT_FLOOR = -20.0


def _check_logprob(value: float, where: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value > 0:
        raise ValueError(f"{where}: log probability must be finite and <= 0, got {value}")
    return value


class ScoringModel(ABC):
    """Pluggable per-step scorer.

    next_scores returns a finite token -> log probability map for one step;
    it may include EOS. Tokens outside the map score the model's floor.
    Implementations must be deterministic for identical inputs.
    """

    floor: float = DEFAULT_FLOOR

    @abstractmethod
    def next_scores(self, source: Sequence[str], prefix: Sequence[str]) -> Mapping[str, float]:
        raise NotImplementedError

    def score_token(self, source: Sequence[str], prefix: Sequence[str], token: str) -> float:
        return self.next_scores(source, prefix).get(token, self.floor)

    def eos_score(self, source: Sequence[str], prefix: Sequence[str]) -> float:
        return self.score_token(source, prefix, EOS)

    def prepare_source(self, source: Sequence[str]) -> None:
        """Optional hook for per-source work reusable across passes. No-op by default."""


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
    def from_rows(
        cls,
        rows: Iterable[tuple[str, str, str, float]],
        floor: float = DEFAULT_FLOOR,
    ) -> "TableModel":
        entries: dict[tuple[str, str], dict[str, float]] = {}
        for source_key, prefix_key, token, lp in rows:
            entries.setdefault((source_key, prefix_key), {})[token] = lp
        return cls(entries, floor=floor)

    @classmethod
    def from_file(cls, path: str | Path, floor: float = DEFAULT_FLOOR) -> "TableModel":
        """Parse lines `source_key ||| prefix_key ||| token ||| logprob`."""
        path = Path(path)
        rows: list[tuple[str, str, str, float]] = []
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = unicodedata.normalize("NFC", raw.rstrip("\n"))
                if not line.strip() or line.startswith("#"):
                    continue
                fields = line.split(" ||| ")
                if len(fields) != 4:
                    raise FormatError(f"{path}:{lineno}: expected 4 '|||'-separated fields")
                source_key, prefix_key, token, raw_lp = fields
                try:
                    lp = _check_logprob(float(raw_lp), f"{path}:{lineno}")
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: bad logprob {raw_lp!r}") from exc
                rows.append((source_key, prefix_key, token, lp))
        return cls.from_rows(rows, floor=floor)

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
        bigrams: dict[tuple[str, str], int] = {}
        contexts: dict[str, int] = {}
        vocab: set[str] = set()
        for line in corpus:
            prev = BOS
            for token in line:
                vocab.add(token)
                bigrams[(prev, token)] = bigrams.get((prev, token), 0) + 1
                contexts[prev] = contexts.get(prev, 0) + 1
                prev = token
            bigrams[(prev, EOS)] = bigrams.get((prev, EOS), 0) + 1
            contexts[prev] = contexts.get(prev, 0) + 1
        self._bigrams = bigrams
        self._contexts = contexts
        # +1 for the EOS event, which shares the smoothing mass
        self._smoothing_vocab = len(vocab) + 1
        self.floor = float(floor)
        self._best_for_source = lru_cache(maxsize=512)(self._best_lexical)
        # the step distribution depends on the prefix only via its last token;
        # only the current source's steps are held, so the cache stays bounded
        self._step_source: tuple[str, ...] | None = None
        self._step_cache: dict[str, dict[str, float]] = {}

    @classmethod
    def from_files(cls, lexical_path: str | Path, corpus_path: str | Path,
                   floor: float = DEFAULT_FLOOR) -> "NoisyChannelToy":
        """Lexical TSV `src<TAB>tgt<TAB>logprob` plus a plain-text target corpus."""
        lexical_path = Path(lexical_path)
        lexical: dict[str, dict[str, float]] = {}
        with open(lexical_path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = unicodedata.normalize("NFC", raw.rstrip("\n"))
                if not line.strip() or line.startswith("#"):
                    continue
                columns = line.split("\t")
                if len(columns) != 3:
                    raise FormatError(f"{lexical_path}:{lineno}: expected 3 tab-separated columns")
                source, target, raw_lp = columns
                try:
                    lp = _check_logprob(float(raw_lp), f"{lexical_path}:{lineno}")
                except ValueError as exc:
                    raise FormatError(f"{lexical_path}:{lineno}: bad logprob {raw_lp!r}") from exc
                lexical.setdefault(source, {})[target] = lp
        corpus: list[tuple[str, ...]] = []
        with open(corpus_path, encoding="utf-8") as handle:
            for raw in handle:
                tokens = unicodedata.normalize("NFC", raw).split()
                if tokens:
                    corpus.append(tuple(tokens))
        return cls(lexical, corpus, floor=floor)

    def bigram_logprob(self, prev: str, token: str) -> float:
        count = self._bigrams.get((prev, token), 0)
        context = self._contexts.get(prev, 0)
        return math.log((count + 1) / (context + self._smoothing_vocab))

    def _best_lexical(self, source: tuple[str, ...]) -> dict[str, float]:
        best: dict[str, float] = {}
        for token in source:
            for target, lp in self._lexical.get(token, {}).items():
                if target not in best or lp > best[target]:
                    best[target] = lp
        return best

    def next_scores(self, source: Sequence[str], prefix: Sequence[str]) -> Mapping[str, float]:
        if source is not self._step_source:
            source = tuple(source)
            if source != self._step_source:
                self._step_cache = {}
            self._step_source = source
        prev = prefix[-1] if prefix else BOS
        cached = self._step_cache.get(prev)
        if cached is None:
            best = self._best_for_source(self._step_source)
            cached = {target: lp + self.bigram_logprob(prev, target) for target, lp in best.items()}
            cached[EOS] = self.bigram_logprob(prev, EOS)
            self._step_cache[prev] = cached
        return cached

    def prepare_source(self, source: Sequence[str]) -> None:
        self._best_for_source(tuple(source))


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
    source = tuple(source)
    if not source:
        raise DecodeError(f"source {source_id}: source sentence is empty")
    model.prepare_source(source)
    width, max_len = cfg.beam_width, cfg.max_len
    # an item is (-score, tokens, is_open), so tuple order is beam order:
    # higher score first, ties lexicographic by tokens, closed before open
    beam: list[tuple[float, tuple[str, ...], bool]] = [(-0.0, (), True)]
    while any(is_open and len(tokens) < max_len for _, tokens, is_open in beam):
        candidates = []
        # min-heap of the width best scores built so far; its root is the
        # threshold, and a child strictly below it is never built
        best = [-math.inf] * width
        for item in beam:
            neg, tokens, is_open = item
            if not is_open or len(tokens) >= max_len:
                candidates.append(item)
                heapq.heappushpop(best, -neg)
                continue
            base = -neg
            threshold = best[0]
            for token, lp in model.next_scores(source, tokens).items():
                score = base + lp
                if score < threshold:
                    continue
                if token == EOS:
                    candidates.append((-score, tokens, False))
                else:
                    candidates.append((-score, (*tokens, token), True))
                heapq.heappushpop(best, score)
                threshold = best[0]
        candidates.sort()
        beam = candidates[:width]
    finished = sorted(
        (-(-neg + model.score_token(source, tokens, EOS)), tokens, False) if is_open
        else (neg, tokens, False)
        for neg, tokens, is_open in beam
    )
    if not finished:
        raise DecodeError(f"source {source_id}: no completed hypothesis within max_len {cfg.max_len}")
    return NBestList(source_id, [Hypothesis(tokens, -neg) for neg, tokens, _ in finished[: cfg.nbest]])


class _LatticeItem(NamedTuple):
    tokens: tuple[str, ...]
    score: float
    closed: bool
    state: int
    arc_index: int  # -1 at a state boundary, else index into arcs_at(state)
    offset: int     # arc tokens already emitted


def _lattice_item_key(item: _LatticeItem) -> tuple:
    return (-item.score, item.tokens, not item.closed, item.state, item.arc_index, item.offset)


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
    source = tuple(source)
    if not source:
        raise DecodeError(f"source {source_id}: source sentence is empty")
    model.prepare_source(source)
    final_state = lattice.final_state
    beam = [_LatticeItem((), 0.0, False, 0, -1, 0)]
    while beam and any(not it.closed for it in beam):
        candidates: list[_LatticeItem] = []
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


def two_pass_decode(
    model: ScoringModel,
    source: Sequence[str],
    pairs: ReinflectionPairSet,
    segmenter: Segmenter | None,
    cfg_first: BeamConfig,
    cfg_second: BeamConfig,
    lexicon: GenderLexicon | None = None,
    source_id: int = 0,
) -> NBestList:
    """First pass 1-best -> lattice of its gendered variants -> constrained pass."""
    segmenter = segmenter if segmenter is not None else WholeWordSegmenter()
    first = beam_search(model, source, cfg_first, source_id=source_id)
    words = segmenter.words(first[0].tokens)
    variants = compose_lattice(pairs, words, segmenter=segmenter, lexicon=lexicon)
    return constrained_beam_search(model, source, variants, cfg_second, source_id=source_id)


def rescore(model: ScoringModel, source: Sequence[str], tokens: Sequence[str]) -> float:
    """Independent sum-of-steps score of a complete hypothesis, EOS included."""
    source = tuple(source)
    prefix: tuple[str, ...] = ()
    total = 0.0
    for token in tokens:
        total += model.score_token(source, prefix, token)
        prefix = (*prefix, token)
    return total + model.score_token(source, prefix, EOS)
