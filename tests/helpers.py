"""Shared test scaffolding: scorers, a fake segmenter, the lattice parser,
oracles and the text that file writers are tried on."""

import hashlib
import itertools
from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence

from hypothesis import event
from hypothesis import strategies as st

from genderbeam.decode import EOS, Hypothesis, NBestList, ScoringModel, TableModel
from genderbeam.errors import DecodeError, LatticeError, RerankError
from genderbeam.evaluation import EvalRecord, run_pipeline, score_records
from genderbeam.lattice import TOKEN_JOINER, HypothesisLattice, LatticeArc, compose_lattice
from genderbeam.morpho import (
    FEMININE,
    MASCULINE,
    NONE,
    GenderLabel,
    GenderLexicon,
    ReinflectionPairSet,
    analyze_gender,
)
from genderbeam.rerank import AlignmentMap, EntitySpec

# pieces of the text a file writer must carry through or refuse: '#', both
# field separators, line breaks, whitespace that breaks no line, and a
# decomposed accent beside plain and composed letters
TOKEN_PIECES = ("a", "é", "e\u0301", "#", "|||", ",")
AWKWARD_TEXT = st.lists(st.sampled_from(TOKEN_PIECES + (" ", "\t", "\r", "\n", " ||| ", "\x0b", "\u2028")),
                        max_size=4).map("".join)
AWKWARD_TOKENS = st.lists(st.sampled_from(TOKEN_PIECES), min_size=1, max_size=3).map("".join)


def written(write, value, path) -> bool:
    """Whether write(value, path) wrote the file at path. A writer that
    refuses value must raise ValueError and leave no file. Each outcome is
    a hypothesis event, so `pytest --hypothesis-show-statistics` shows the
    share of examples written."""
    path.unlink(missing_ok=True)
    try:
        write(value, path)
    except ValueError:
        assert not path.exists()
        event("refused")
        return False
    event("written")
    return True


TOY_PAIRS = ReinflectionPairSet(
    [
        ("el", "la", FEMININE),
        ("la", "el", MASCULINE),
        ("médico", "médica", FEMININE),
        ("médica", "médico", MASCULINE),
    ]
)


def bigram_fields(model):
    """The counted fields of a NoisyChannelToy, with every key order."""
    return ([(prev, list(row.items())) for prev, row in model._followers.items()],
            list(model._contexts.items()), model._smoothing_vocab)


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


class LastTokenTable(TableModel):
    """A TableModel keyed by the source and the prefix's last token alone, as
    NoisyChannelToy keys its steps: prefixes that end alike get one step map
    back, so a search ranks that map once and walks its ranking each time
    it comes back."""

    def next_scores(self, source, prefix):
        return super().next_scores(source, prefix[-1:])


MAX_ENUMERATED_PATHS = 10**6


def _arc_paths(lattice):
    """Every lattice path as its arcs, the last position varying fastest."""
    if lattice.path_count > MAX_ENUMERATED_PATHS:
        raise LatticeError(f"lattice has {lattice.path_count} paths, over the "
                           f"{MAX_ENUMERATED_PATHS} enumeration bound")
    return itertools.product(*(lattice.arcs_at(i) for i in range(lattice.num_positions)))


def enumerate_paths(lattice):
    """All paths as (words, per-word genders), in _arc_paths order."""
    return [(tuple(arc.word for arc in combo), tuple(arc.gender for arc in combo))
            for combo in _arc_paths(lattice)]


def realizations(lattice):
    """Model-token realizations of every lattice path, in _arc_paths order."""
    for combo in _arc_paths(lattice):
        yield tuple(token for arc in combo for token in arc.model_tokens)


def rescore(model, source, tokens):
    """Independent sum-of-steps score of a complete hypothesis, EOS included."""
    source = tuple(source)
    prefix = ()
    total = 0.0
    for token in (*tokens, EOS):
        total += model.next_scores(source, prefix).get(token, model.floor)
        prefix = (*prefix, token)
    return total


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
        else (tokens, score + model.next_scores(source, tokens).get(EOS, model.floor), True)
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
    arc_index: int  # -1 at a position boundary, else index into arcs_at(state)
    offset: int     # arc tokens already emitted


def _lattice_item_key(item):
    return (-item.score, item.tokens, not item.closed, item.state, item.arc_index, item.offset)


def reference_constrained_beam_search(model, source, lattice, cfg, source_id=0):
    """Full-sort reference for constrained_beam_search: items walk the arcs
    with (state, arc_index, offset) sub-state, each child is scored with its
    own next_scores lookup, and all candidates are sorted by a key function."""
    source = tuple(source)
    if not source:
        raise DecodeError(f"source {source_id}: source sentence is empty")
    final_state = lattice.num_positions
    beam = [_LatticeItem((), 0.0, False, 0, -1, 0)]
    while beam and any(not it.closed for it in beam):
        candidates = []
        for item in beam:
            if item.closed:
                candidates.append(item)
                continue
            at_final = item.state == final_state and item.arc_index < 0
            if at_final:
                lp = model.next_scores(source, item.tokens).get(EOS, model.floor)
                candidates.append(item._replace(score=item.score + lp, closed=True))
                continue
            if len(item.tokens) >= cfg.max_len:
                continue  # mid-lattice at the length cap: cannot become a complete path
            if item.arc_index >= 0:
                arc = lattice.arcs_at(item.state)[item.arc_index]
                token = arc.model_tokens[item.offset]
                lp = model.next_scores(source, item.tokens).get(token, model.floor)
                tokens = (*item.tokens, token)
                if item.offset + 1 == len(arc.model_tokens):
                    candidates.append(_LatticeItem(tokens, item.score + lp, False, item.state + 1, -1, 0))
                else:
                    candidates.append(
                        _LatticeItem(tokens, item.score + lp, False, item.state, item.arc_index, item.offset + 1)
                    )
                continue
            for arc_index, arc in enumerate(lattice.arcs_at(item.state)):
                token = arc.model_tokens[0]
                lp = model.next_scores(source, item.tokens).get(token, model.floor)
                tokens = (*item.tokens, token)
                if len(arc.model_tokens) == 1:
                    candidates.append(_LatticeItem(tokens, item.score + lp, False, item.state + 1, -1, 0))
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
    positions = [[] for _ in range(rng.randint(1, max_positions))]
    for position, arcs in enumerate(positions):
        for variant in range(rng.randint(1, max_arcs)):
            word = f"w{position}v{variant}"
            if multi_token and rng.random() < 0.3:
                tokens = (f"{word}@@", rng.choice(("x", "y")))
            else:
                tokens = (word,)
            arcs.append(LatticeArc(word, tokens))
    return HypothesisLattice(positions)


def pipeline_report(*args, **kwargs):
    """score_records over the records of run_pipeline(*args, **kwargs)."""
    return score_records([outcome.record for outcome in run_pipeline(*args, **kwargs)])


def reference_link_pairs(field):
    """The per-pair rule parse_alignments applied to every link field before
    it validated whole fields: split on any whitespace, each pair is two
    ASCII-digit indices joined by the first '-'. Returns the link set, or
    raises ValueError carrying the first bad pair."""
    links = set()
    for pair in field.split():
        left, sep, right = pair.partition("-")
        if not sep or not all(side.isascii() and side.isdigit() for side in (left, right)):
            raise ValueError(pair)
        links.add((int(left), int(right)))
    return frozenset(links)


def reference_alignment_links(links):
    """The links an AlignmentMap must hold, by the plainest loop: each link
    checked for a negative index, then coerced with int()."""
    checked = set()
    for s, t in links:
        if s < 0 or t < 0:
            raise RerankError(f"alignment link ({s}, {t}) has a negative index")
        checked.add((int(s), int(t)))
    return frozenset(checked)


def entries_for(lexicon, surface):
    """The lexicon's entries for one surface."""
    return frozenset(entry for entry in lexicon.all_entries() if entry.surface == surface)


def reference_analyze_gender(lexicon, token):
    """Union of genders over the token's entries; the first matching pattern
    when it has none."""
    entries = entries_for(lexicon, token)
    if entries:
        return frozenset(entry.gender for entry in entries)
    for pattern in lexicon.patterns:
        if pattern.matches(token):
            return frozenset({pattern.gender})
    return frozenset()


def reference_extract_predicted_gender(
    hypothesis: Sequence[str],
    alignment: AlignmentMap,
    entity_indices: Iterable[int],
    lexicon: GenderLexicon,
) -> GenderLabel | None:
    """Majority gender over the entity's aligned target tokens.

    Each aligned token votes once per analyzed concrete gender; a tie or the
    absence of any gendered aligned token yields None, which scoring counts
    as wrong.
    """
    votes: Counter[GenderLabel] = Counter()
    for target in sorted(alignment.aligned_targets(entity_indices)):
        if target >= len(hypothesis):
            continue
        for label in analyze_gender(lexicon, hypothesis[target]):
            if label != NONE:
                votes[label] += 1
    if not votes:
        return None
    ranked = votes.most_common()
    if len(ranked) > 1 and ranked[0][1] == ranked[1][1]:
        return None
    return ranked[0][0]


def agreement_score(hypothesis, alignment, entities, lexicon):
    """Aligned target tokens whose gender set contains the required gender,
    once per entity and aligned target: one hypothesis scanned on its own."""
    total = 0
    for spec in entities:
        targets = frozenset(t for s, t in alignment if s in spec.entity_indices)
        for target in targets:
            if target < len(hypothesis) and spec.required_gender in reference_analyze_gender(
                lexicon, hypothesis[target]
            ):
                total += 1
    return total


def reference_rerank(nbest, alignments, entities, lexicon):
    """(selected index, agreement scores) with every hypothesis scanned on its
    own, as rerank did before it shared work between equal link sets."""
    scores = [agreement_score(hyp.tokens, alignment, entities, lexicon)
              for hyp, alignment in zip(nbest, alignments)]
    selected = max(range(len(nbest)), key=lambda i: (scores[i], nbest[i].loglik, -i))
    return selected, tuple(scores)


def reference_two_pass(model, source, pairs, cfg_first, cfg_second, source_id=0):
    """two_pass_decode composed from the references, with whole-word tokens:
    the first pass at cfg_first, the lattice of its 1-best, then the
    constrained pass at cfg_second."""
    first = reference_beam_search(model, source, cfg_first, source_id)
    if not first[0].tokens:
        raise DecodeError(f"source {source_id}: first-pass 1-best is empty")
    lattice = compose_lattice(pairs, first[0].tokens)
    return reference_constrained_beam_search(model, source, lattice, cfg_second, source_id)


def reference_pipeline(testset, model, pairs, lexicon, *, constrain, rerank_mode, cfg,
                       pronoun_table=None, nouns=()):
    """run_pipeline composed from the references: (record, n-best, selected
    index) per sentence. The lattice is composed from the first pass's
    1-best with whole-word tokens, each hypothesis is aligned on the
    diagonal, and inferred entities pair each pronoun with the nearest
    preceding noun."""
    outcomes = []
    for sentence in testset:
        source, sent_id = sentence.source, sentence.sent_id
        if constrain:
            nbest = reference_two_pass(model, source, pairs, cfg, cfg, sent_id)
        else:
            nbest = reference_beam_search(model, source, cfg, sent_id)
        alignments = [AlignmentMap((i, i) for i in range(min(len(source), len(hyp.tokens))))
                      for hyp in nbest]
        entities = []
        if rerank_mode == "oracle":
            entities = [EntitySpec(sentence.trigger_index, sentence.gold_gender, sentence.entity_indices)]
        elif rerank_mode == "inferred":
            for index, token in enumerate(source):
                if token in pronoun_table:
                    nearest = [i for i in range(index) if source[i] in nouns][-1:]
                    if nearest:
                        entities.append(EntitySpec(index, pronoun_table[token], frozenset(nearest)))
        selected, _ = reference_rerank(nbest, alignments, entities, lexicon)
        predicted = reference_extract_predicted_gender(
            nbest[selected].tokens, alignments[selected], sentence.entity_indices, lexicon)
        outcomes.append((EvalRecord(sent_id, sentence.gold_gender, predicted), nbest, selected))
    return outcomes


class SubwordTable:
    """Fixed word -> token sequence table; unlisted words stay whole.

    Reassembly is greedy longest match against the table; same-length
    candidates resolve to the lexicographically smallest word so that the
    mapping stays deterministic even when the table is ambiguous.
    """

    def __init__(self, table: Mapping[str, Sequence[str]]) -> None:
        self._table: dict[str, tuple[str, ...]] = {}
        inverse: dict[tuple[str, ...], str] = {}
        for word, tokens in table.items():
            pieces = tuple(tokens)
            if not word or not pieces or any(not piece for piece in pieces):
                raise ValueError(f"invalid segmentation for {word!r}: {pieces!r}")
            self._table[word] = pieces
            known = inverse.get(pieces)
            if known is None or word < known:
                inverse[pieces] = word
        self._inverse = inverse
        self._longest = max((len(pieces) for pieces in inverse), default=0)

    def segment(self, word: str) -> tuple[str, ...]:
        return self._table.get(word, (word,))

    def words(self, tokens: Sequence[str]) -> tuple[str, ...]:
        out: list[str] = []
        i = 0
        tokens = tuple(tokens)
        while i < len(tokens):
            match = None
            for span in range(min(self._longest, len(tokens) - i), 0, -1):
                candidate = self._inverse.get(tokens[i : i + span])
                if candidate is not None:
                    match = (candidate, span)
                    break
            if match is None:
                out.append(tokens[i])
                i += 1
            else:
                out.append(match[0])
                i += match[1]
        return tuple(out)


MEDIC_TABLE = SubwordTable({"médica": ("médic", "a"), "médico": ("médic", "o")})


def deserialize_lattice(text: str) -> HypothesisLattice:
    """Parse the serialize_lattice format; errors carry 1-based line numbers.

    An arc line runs from its position's state to the next, and positions
    come in order from 0 with none left out."""
    positions: dict[int, list[LatticeArc]] = {}
    final_state: int | None = None
    last_position = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if final_state is not None:
            raise LatticeError(f"line {lineno}: content after the FINAL line")
        columns = line.split("\t")
        if columns[0] == "FINAL":
            # ASCII digits only: str.isdigit also accepts '²', which int rejects
            if len(columns) != 2 or not (columns[1].isascii() and columns[1].isdigit()):
                raise LatticeError(f"line {lineno}: malformed FINAL line")
            final_state = int(columns[1])
            continue
        if len(columns) != 5:
            raise LatticeError(f"line {lineno}: expected 5 tab-separated fields, got {len(columns)}")
        raw_from, raw_to, word, joined, tag = columns
        try:
            from_state, to_state = int(raw_from), int(raw_to)
        except ValueError:
            raise LatticeError(f"line {lineno}: non-numeric arc states") from None
        tokens = tuple(joined.split(TOKEN_JOINER))
        try:
            gender = GenderLabel(tag)
        except ValueError as exc:
            raise LatticeError(f"line {lineno}: {exc}") from exc
        if from_state < 0:
            raise LatticeError(f"line {lineno}: negative arc state {from_state}")
        if to_state != from_state + 1:
            raise LatticeError(f"line {lineno}: arc must advance one state: {from_state} -> {to_state}")
        if from_state < last_position:
            raise LatticeError(f"line {lineno}: arcs must be grouped by position in order")
        last_position = from_state
        try:
            positions.setdefault(from_state, []).append(LatticeArc(word, tokens, gender))
        except LatticeError as exc:
            raise LatticeError(f"line {lineno}: {exc}") from exc
    if not positions:
        raise LatticeError("lattice text contains no arcs")
    if final_state is None:
        raise LatticeError("lattice text missing the FINAL line")
    missing = [i for i in range(last_position) if i not in positions]
    if missing:
        raise LatticeError(f"no outgoing arcs at positions {missing}")
    lattice = HypothesisLattice(positions.values())
    if lattice.num_positions != final_state:
        raise LatticeError(
            f"FINAL state {final_state} does not match arc structure ({lattice.num_positions})"
        )
    return lattice
