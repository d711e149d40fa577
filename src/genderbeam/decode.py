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
from .morpho import BOS, EOS, ReinflectionPairSet, _is_token, _not_token, count_lines, read_lines, read_rows
from .segment import Segmenter, WholeWordSegmenter

DEFAULT_FLOOR = -20.0
# the sentence start as NoisyChannelToy keys it in its bigram rows and step
# cache: no str equals it, so a forced BOS token is an unseen context there
_START = object()


def _check_logprob(value: float, where: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value > 0:
        raise ValueError(f"{where}: log probability must be finite and <= 0, got {value}")
    return value


def _reserved(token: str) -> str:
    return f"token {token!r} is reserved for the sentence boundaries"


def _refused_key(keys: Sequence[str], tokens: Sequence[str], reserved: tuple[str, ...]) -> str | None:
    """Why a model entry with these key and token fields is refused, or
    None: each key must be tokens joined by single spaces, each token field
    a token, and the last token field, the scored token, must not be one of
    the reserved boundary tokens."""
    for key in keys:
        if not key or key != " ".join(key.split()):
            return f"key {key!r} is empty or not tokens joined by single spaces"
    for token in tokens:
        if not _is_token(token):
            return _not_token(token)
    if tokens and tokens[-1] in reserved:
        return _reserved(tokens[-1])
    return None


def _check_entry(tokens: Sequence[str], lp: float, reserved: tuple[str, ...], where: str) -> float:
    """lp as a checked log probability of a model entry whose token fields
    _refused_key accepts."""
    reason = _refused_key((), tokens, reserved)
    if reason is not None:
        raise ValueError(f"{where}: {reason}")
    return _check_logprob(lp, where)


def _parse_logprob(text: str) -> float:
    try:
        return _check_logprob(float(text), "logprob")
    except ValueError:
        raise ValueError(f"bad logprob {text!r}") from None


def _read_logprobs(path, sep: str, count: int, tokens: int,
                   reserved: tuple[str, ...]) -> dict[tuple[str, ...], float]:
    """The logprob of each key of a model file whose rows are key fields and
    then a logprob; _refused_key checks the last `tokens` key fields as
    token fields, the last being the scored token, and any before them as
    space-joined keys. An exact repeat collapses; a key given again with
    another logprob is an error naming both lines."""

    def parse(*row: str) -> tuple[tuple[str, ...], float]:
        key = row[:-1]
        reason = _refused_key(key[:-tokens], key[-tokens:], reserved)
        if reason is not None:
            raise ValueError(reason)
        return key, _parse_logprob(row[-1])

    logprobs: dict[tuple[str, ...], tuple[float, int]] = {}
    for lineno, (key, lp) in read_rows(path, sep, count, FormatError, parse):
        known, first = logprobs.setdefault(key, (lp, lineno))
        if known != lp:
            raise FormatError(f"{path}:{lineno}: logprob {lp!r} for {key} conflicts with {known!r} "
                              f"from line {first}")
    return {key: lp for key, (lp, _) in logprobs.items()}


class ScoringModel(ABC):
    """Pluggable per-step scorer.

    A scorer implements next_scores and floor, and search reads nothing
    else. next_scores returns a finite token -> log probability map
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

    Keys are tokens joined by single spaces; a key that is empty or spaced
    otherwise is refused, since no sequence joins to it. The empty prefix is
    keyed as BOS. Unknown (source, prefix) keys yield an empty map, so
    unlisted continuations score the floor only through forced decoding.
    BOS is no token: an entry scoring it is refused, and a prefix of BOS
    alone is unknown. EOS is scored as a token, and closes a hypothesis. A
    scored token must be nonempty and hold no whitespace, so that a
    hypothesis written space-joined reads back as the same tokens.
    """

    def __init__(self, entries: Mapping[tuple[str, str], Mapping[str, float]]) -> None:
        table: dict[tuple[str, str], dict[str, float]] = {}
        for (source_key, prefix_key), scores in entries.items():
            reason = _refused_key((source_key, prefix_key), (), ())
            if reason is not None:
                raise ValueError(f"table entry ({source_key!r}, {prefix_key!r}): {reason}")
            checked = {
                token: _check_entry((token,), lp, (BOS,),
                                    f"table entry ({source_key!r}, {prefix_key!r}, {token!r})")
                for token, lp in scores.items()
            }
            table[(source_key, prefix_key)] = checked
        self._table = table

    @classmethod
    def from_file(cls, path: str | Path) -> "TableModel":
        """Parse lines `source_key ||| prefix_key ||| token ||| logprob`."""
        entries: dict[tuple[str, str], dict[str, float]] = {}
        rows = _read_logprobs(path, " ||| ", 4, 1, (BOS,))
        for (source_key, prefix_key, token), lp in rows.items():
            entries.setdefault((source_key, prefix_key), {})[token] = lp
        return cls(entries)

    def next_scores(self, source: Sequence[str], prefix: Sequence[str]) -> Mapping[str, float]:
        prefix_key = " ".join(prefix) if prefix else BOS
        if prefix and prefix_key == BOS:  # BOS is no token, so no entry follows it
            return {}
        return self._table.get((" ".join(source), prefix_key), {})


def _count_bigrams(lines: Iterable[tuple[Sequence[str], int]]) -> dict[object, dict[str, int]]:
    """followers[prev][token] counts the bigram (prev, token), each line's
    bigrams taken count times, _START before the first token and EOS after
    the last. Rows and their keys come in the order each first occurs."""
    followers: dict[object, dict[str, int]] = {}
    for line, count in lines:
        prev: object = _START
        for token in line:
            row = followers.get(prev)
            if row is None:
                row = followers[prev] = {}
            row[token] = row.get(token, 0) + count
            prev = token
        row = followers.get(prev)
        if row is None:
            row = followers[prev] = {}
        row[EOS] = row.get(EOS, 0) + count
    return followers


def _counted_reserved(followers: Mapping[object, Mapping[str, int]]) -> bool:
    """Whether a line counted into followers held BOS or EOS: EOS as a token
    gets a row of its own, and BOS as a token is a key of some row. Rows are
    few, so the lines are searched only once this holds."""
    return EOS in followers or any(BOS in row for row in followers.values())


def _first_refused(lines: Iterable[tuple[int, Sequence[str]]]) -> str:
    """`number: reason` for the first numbered line holding BOS or EOS, or a
    token that is empty or holds whitespace. BOS and EOS mark the sentence
    boundaries, so counting either as a word would merge it with the
    boundary events."""
    for number, tokens in lines:
        for token in (BOS, EOS):
            if token in tokens:
                return f"{number}: {_reserved(token)}"
        for token in tokens:
            if not _is_token(token):
                return f"{number}: {_not_token(token)}"
    return f"no line holds {BOS!r} or {EOS!r} on a second reading"


class NoisyChannelToy(ScoringModel):
    """Lexical table + add-one-smoothed target bigram scorer.

    score(t) = max over source tokens of lexical logprob(t) plus the smoothed
    bigram logprob of t given the last prefix token. Targets with no lexical
    support under any source token are left out of the map and hence floor.
    EOS is scored by the bigram term alone, so a lexical entry whose target is
    BOS or EOS is refused. Both tokens of a lexical entry must be nonempty
    and hold no whitespace, so that a hypothesis written space-joined reads
    back as the same tokens.

    A corpus line is a sequence of tokens; an empty one counts the bigram
    (BOS, EOS). A line holding BOS or EOS is refused, since counting it would
    merge a word with the sentence boundaries, and so is a line holding a
    token that is empty or holds whitespace: the constructor raises
    ValueError naming the line's 0-based index. Every corpus token follows
    BOS or another token, so the vocabulary is read off the bigram rows.
    Only the empty prefix reads the sentence-start row: a prefix ending in a
    forced BOS token is a context the corpus never holds.
    """

    def __init__(
        self,
        lexical: Mapping[str, Mapping[str, float]],
        corpus: Iterable[Sequence[str]],
    ) -> None:
        self._lexical: dict[str, dict[str, float]] = {
            source: {
                target: _check_entry((source, target), lp, (BOS, EOS),
                                     f"lexical entry ({source!r}, {target!r})")
                for target, lp in targets.items()
            }
            for source, targets in lexical.items()
        }
        corpus = list(corpus)
        followers = _count_bigrams((line, 1) for line in corpus)
        if _counted_reserved(followers) or not all(
                _is_token(token) for row in followers.values() for token in row):
            raise ValueError(f"corpus line {_first_refused(enumerate(corpus))}")
        self._set_bigrams(followers)
        # only the current source is cached: its best lexical logprob per
        # target, and its step maps keyed by the last prefix token, which is
        # all a step depends on
        self._step_source: tuple[str, ...] | None = None
        self._best: dict[str, float] = {}
        self._step_cache: dict[object, dict[str, float]] = {}

    def _set_bigrams(self, followers: dict[object, dict[str, int]]) -> None:
        self._followers = followers
        self._contexts = {prev: sum(row.values()) for prev, row in followers.items()}
        vocab = set().union(*followers.values())
        vocab.discard(EOS)
        # +1 for the EOS event, which shares the smoothing mass
        self._smoothing_vocab = len(vocab) + 1

    @classmethod
    def from_files(cls, lexical_path: str | Path, corpus_path: str | Path) -> "NoisyChannelToy":
        """Lexical TSV `src<TAB>tgt<TAB>logprob` plus a plain-text target
        corpus, one whitespace-tokenized sentence per line. Blank and
        whitespace-only lines are skipped; a lexical target or a corpus line
        holding BOS or EOS, or a lexical field that is not a token, raises
        FormatError naming its line.
        Each distinct raw line is normalized, split and counted once, as many
        times as it occurs. Raw spellings of one text add their counts in the
        order each first occurs, which gives the same counts in the same
        order as counting every line."""
        lexical: dict[str, dict[str, float]] = {}
        for (source, target), lp in _read_logprobs(lexical_path, "\t", 3, 2, (BOS, EOS)).items():
            lexical.setdefault(source, {})[target] = lp
        followers = _count_bigrams((tokens, count) for line, count in count_lines(corpus_path)
                                   if (tokens := line.split()))
        if _counted_reserved(followers):
            raise FormatError(f"{corpus_path}:" + _first_refused(
                (lineno, line.split()) for lineno, line in read_lines(corpus_path)))
        model = cls(lexical, ())
        model._set_bigrams(followers)
        return model

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
        prev = prefix[-1] if prefix else _START
        cached = self._step_cache.get(prev)
        if cached is None:
            cached = self._step_cache[prev] = self._build_step(prev)
        return cached

    def _build_step(self, prev: object) -> dict[str, float]:
        """The current source's step map after prev: each target's best
        lexical logprob plus log((count + 1) / (context + V)), the smoothed
        bigram term, with the context's denominator and the unseen-bigram log
        taken once."""
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


@dataclass(frozen=True, repr=False)
class NBestList:
    """Hypotheses for one source sentence, log likelihood non-increasing.

    Construction takes any iterable of hypotheses and re-sorts it stably, so
    equal scores keep the caller's order. A NaN log likelihood is refused:
    it compares false both ways, so no sort could place it.
    """

    source_id: int
    hypotheses: tuple[Hypothesis, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "source_id", int(self.source_id))
        # a reverse sort is stable too
        hypotheses = tuple(sorted(self.hypotheses, key=operator.attrgetter("loglik"), reverse=True))
        object.__setattr__(self, "hypotheses", hypotheses)
        if any(map(math.isnan, map(operator.attrgetter("loglik"), hypotheses))):
            raise ValueError(f"source {self.source_id}: a hypothesis has a NaN loglik")

    def __len__(self) -> int:
        return len(self.hypotheses)

    def __iter__(self) -> Iterator[Hypothesis]:
        return iter(self.hypotheses)

    def __getitem__(self, index: int) -> Hypothesis:
        return self.hypotheses[index]

    def __repr__(self) -> str:
        return f"NBestList(source_id={self.source_id}, {len(self.hypotheses)} hypotheses)"


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

    Each lattice position starts an automaton state, followed by one state
    per token already emitted inside each of its multi-token arcs, so state
    ids increase in (position, arc index, offset) order. The last state is
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
            ordered = entry is not None or seen.pop(key, None) is not None
            if ordered:
                if entry is None:
                    entry = ranked[key] = (
                        scores, sorted(scores.items(), key=operator.itemgetter(1), reverse=True))
                children = entry[1]
            else:
                # first sight: walk in map order, since a map that never
                # comes back is not worth a sort
                if len(seen) == width:
                    del seen[next(iter(seen))]
                seen[key] = scores
                children = scores.items()
            for token, lp in children:
                score = base + lp
                if score < threshold:
                    if ordered:
                        break  # every later child scores no more
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
    variants = compose_lattice(pairs, words, segmenter=segmenter)
    return constrained_beam_search(model, source, variants, cfg_second, source_id=source_id)
