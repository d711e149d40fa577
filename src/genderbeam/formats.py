"""Interchange file formats: n-best lists, alignments, entities, test sets.

These files are the stage boundaries of the pipeline, so external tools
(real translation systems, aligners, coreference models) can replace any
built-in stage. Every reader hands a row parser to `morpho.read_rows`,
which applies the line rule (NFC, blank lines and `#` comments skipped) and
names the path and 1-based line number of any error the parser raises. Only
checks across rows, such as a duplicate alignment, name lines themselves.
Plain-text sentence files are read by `read_sentences`, which has no
comment syntax.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Mapping, Sequence

from .decode import Hypothesis, NBestList
from .errors import FormatError
from .evaluation import TestSentence
from .morpho import GenderLabel, _gender_parser, _is_token, _not_token, data_lines, read_rows, read_sentences
from .rerank import AlignmentMap, EntitySpec

NBEST_SEPARATOR = " ||| "


def _index(text: str) -> int | None:
    """text as an index if it is ASCII digits within int's digit limit:
    str.isdigit also accepts '²', which int rejects."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # past int's digit limit
            pass
    return None


def _parse_int(text: str, what: str) -> int:
    """An id, rank or trigger field: ASCII digits, surrounding blanks allowed.
    int() alone would also take '1_0', '١', '-1' and '+2'."""
    text = text.strip()
    value = _index(text)
    if value is None:
        raise ValueError(f"{what} must be an integer, got {text!r}")
    return value


def parse_nbest(path) -> dict[int, NBestList]:
    """Moses-style lines `sent_id ||| token sequence ||| loglik`, grouped by id.

    File order within a group is rank order, so a group must be listed best
    first: a loglik above the one before it in its group is an error naming
    its line. Equal logliks keep file order. Each distinct id field is
    parsed once, and each distinct token is held once: every hypothesis the
    call returns shares one string per distinct token, since the variants of
    one translation repeat almost all of their tokens.
    """
    groups: dict[int, list[Hypothesis]] = {}
    ids: dict[str, int] = {}  # id field -> id, this call only
    words: dict[str, str] = {}  # token -> the one string held for it, this call only

    def parse(sent_id: str, tokens: str, loglik: str) -> tuple[int, Hypothesis]:
        key = ids.get(sent_id)
        if key is None:
            key = ids[sent_id] = _parse_int(sent_id, "sent_id")
        try:
            value = float(loglik)
        except ValueError:
            raise ValueError(f"loglik must be a number, got {loglik!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"loglik must be finite, got {loglik!r}")
        parts = tokens.split()
        return key, Hypothesis(tuple(map(words.setdefault, parts, parts)), value)

    for lineno, (sent_id, hyp) in read_rows(path, NBEST_SEPARATOR, 3, FormatError, parse):
        group = groups.setdefault(sent_id, [])
        if group and hyp.loglik > group[-1].loglik:
            raise FormatError(
                f"{path}:{lineno}: loglik {hyp.loglik!r} is above the {group[-1].loglik!r} before it "
                f"for sent_id {sent_id}; hypotheses must be listed best first"
            )
        group.append(hyp)
    return {sent_id: NBestList(sent_id, hyps) for sent_id, hyps in groups.items()}


def write_nbest(lists: Iterable[NBestList], path) -> None:
    """Lines parse_nbest reads back, ordered by sent_id.

    A hypothesis whose tokens would read back otherwise, a token that is
    empty or holds str.split whitespace, raises ValueError naming its
    sent_id, 0-based rank and token before the file is opened.
    """
    ordered = sorted(lists, key=lambda l: l.source_id)
    for nbest in ordered:
        for rank, hyp in enumerate(nbest):
            if " ".join(hyp.tokens).split() != list(hyp.tokens):
                token = next(token for token in hyp.tokens if not _is_token(token))
                raise ValueError(f"sent_id {nbest.source_id} rank {rank}: token {token!r} "
                                 f"would not read back as itself")
    with open(path, "w", encoding="utf-8") as handle:
        for nbest in ordered:
            for hyp in nbest:
                tokens = " ".join(hyp.tokens)
                handle.write(f"{nbest.source_id}{NBEST_SEPARATOR}{tokens}"
                             f"{NBEST_SEPARATOR}{hyp.loglik!r}\n")


# a whole link field of ASCII `i-j` pairs, or empty; `\s` is the whitespace
# of str.split, so this accepts exactly the fields whose every split pair is
# two ASCII-digit indices joined by `-`
_LINK_FIELD = re.compile(r"([0-9]+-[0-9]+(\s+[0-9]+-[0-9]+)*)?")


def _is_pair(pair: str) -> bool:
    left, _, right = pair.partition("-")
    return _index(left) is not None and _index(right) is not None


def _parse_links(text: str) -> AlignmentMap:
    """One stripped link field; a rejected field is reported by its first bad pair."""
    if _LINK_FIELD.fullmatch(text) is not None:
        try:
            ints = map(int, text.replace("-", " ").split())
            return AlignmentMap(zip(ints, ints))
        except ValueError:  # an index past int's digit limit
            pass
    bad = next(pair for pair in text.split() if not _is_pair(pair))
    raise ValueError(f"malformed alignment pair {bad!r}")


def parse_alignments(path) -> dict[tuple[int, int], AlignmentMap]:
    """Pharaoh lines `sent_id<TAB>hyp_rank<TAB>0-0 1-2 ...`; links deduplicated.

    Ids, ranks and link indices are ASCII digits. A second line for the same
    (sent_id, hyp_rank) is an error naming both lines; the file is searched
    for the first of them only then. Each distinct id, rank and link field
    is parsed once, and lines with the same link field share one map, so
    each distinct link set is held once.
    """
    result: dict[tuple[int, int], AlignmentMap] = {}
    # field text -> parsed value, this call only: each no larger than result
    maps: dict[str, AlignmentMap] = {}
    ids: dict[str, int] = {}
    ranks: dict[str, int] = {}

    def parse(sent_id: str, rank: str, links: str) -> tuple[tuple[int, int], AlignmentMap]:
        id_value = ids.get(sent_id)
        if id_value is None:
            id_value = ids[sent_id] = _parse_int(sent_id, "sent_id")
        rank_value = ranks.get(rank)
        if rank_value is None:
            rank_value = ranks[rank] = _parse_int(rank, "hyp_rank")
        key = (id_value, rank_value)
        links = links.strip()
        alignment = maps.get(links)
        if alignment is None:
            alignment = maps[links] = _parse_links(links)
        return key, alignment

    for lineno, (key, alignment) in read_rows(path, "\t", 3, FormatError, parse):
        if key in result:
            rows = read_rows(path, "\t", 3, FormatError, parse)
            first = next((n for n, (k, _) in rows if k == key), "?")
            raise FormatError(f"{path}:{lineno}: duplicate alignment for sent_id {key[0]} "
                              f"rank {key[1]}, first given on line {first}")
        result[key] = alignment
    return result


def write_alignments(alignments: Mapping[tuple[int, int], AlignmentMap], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for (sent_id, rank), alignment in sorted(alignments.items()):
            links = " ".join(f"{s}-{t}" for s, t in sorted(alignment))
            handle.write(f"{sent_id}\t{rank}\t{links}\n")


def _parse_anchor(trigger: str, indices: str) -> tuple[int | None, frozenset[int]]:
    """The trigger and entity-index fields that entity and test-set rows
    share: `-` or an index, then comma-separated indices."""
    trigger_index = None if trigger == "-" else _parse_int(trigger, "trigger_index")
    entity_indices = set()
    for part in indices.split(","):
        part = part.strip()
        index = _index(part)
        if index is None:
            raise ValueError(f"malformed token index {part!r}")
        entity_indices.add(index)
    return trigger_index, frozenset(entity_indices)


def read_entities(path, user_labels: Iterable[str] = ()) -> dict[int, list[EntitySpec]]:
    """Entity annotations `sent_id<TAB>gender<TAB>trigger_index<TAB>i,j,...`.

    A `-` trigger means no trigger position (named-entity mode). Multiple
    lines per sentence accumulate in file order. Gender tags outside the
    built-ins must be declared via user_labels.
    """
    gender_of = _gender_parser(user_labels)

    def parse(sent_id: str, gender: str, trigger: str, indices: str) -> tuple[int, EntitySpec]:
        sent_id = _parse_int(sent_id, "sent_id")
        trigger_index, entity_indices = _parse_anchor(trigger, indices)
        return sent_id, EntitySpec(trigger_index, gender_of(gender), entity_indices)

    result: dict[int, list[EntitySpec]] = {}
    for _, (sent_id, spec) in read_rows(path, "\t", 4, FormatError, parse):
        result.setdefault(sent_id, []).append(spec)
    return result


def write_entities(entities: Mapping[int, Sequence[EntitySpec]], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sent_id in sorted(entities):
            for spec in entities[sent_id]:
                trigger = "-" if spec.trigger_index is None else str(spec.trigger_index)
                indices = ",".join(str(i) for i in sorted(spec.entity_indices))
                handle.write(f"{sent_id}\t{spec.required_gender}\t{trigger}\t{indices}\n")


def _pronoun_row(pronoun: str, gender: GenderLabel) -> tuple[str, GenderLabel]:
    if not _is_token(pronoun):
        raise ValueError(f"pronoun {_not_token(pronoun)}")
    return pronoun, gender


def read_pronoun_table(path, user_labels: Iterable[str] = ()) -> dict[str, GenderLabel]:
    """Pronoun-to-gender TSV `pronoun<TAB>gender`; the pronoun is a token. Repeats
    match ignoring case, as in pronoun_and_gender: one with the same gender
    collapses into the first spelling; one with another gender is an error
    naming both lines. Gender tags outside the built-ins must be declared via
    user_labels."""
    gender_of = _gender_parser(user_labels)
    table: dict[str, tuple[str, GenderLabel, int]] = {}
    for lineno, (pronoun, gender) in read_rows(path, "\t", 2, FormatError, lambda pronoun, gender:
                                               _pronoun_row(pronoun, gender_of(gender))):
        _, known, first = table.setdefault(pronoun.lower(), (pronoun, gender, lineno))
        if known != gender:
            raise FormatError(f"{path}:{lineno}: gender {gender} for pronoun {pronoun!r} conflicts "
                              f"with {known} from line {first}")
    return {pronoun: gender for pronoun, gender, _ in table.values()}


def read_word_list(path) -> tuple[str, ...]:
    """One word per data line, its ends stripped; used for known-noun lists.
    A word that is still not a token is an error naming its line."""
    words = []
    for lineno, line in data_lines(path):
        word = line.strip()
        if not _is_token(word):
            raise FormatError(f"{path}:{lineno}: noun {_not_token(word)}")
        words.append(word)
    return tuple(words)


def read_testset(path, user_labels: Iterable[str] = ()) -> list[TestSentence]:
    """Rows `sent_id<TAB>gold_gender<TAB>source sentence<TAB>trigger<TAB>i,j,...`.

    A second row with the same sent_id is an error naming both lines. Gender
    tags outside the built-ins must be declared via user_labels.
    """
    gender_of = _gender_parser(user_labels)

    def parse(sent_id: str, gender: str, source: str, trigger: str, indices: str) -> TestSentence:
        sent_id = _parse_int(sent_id, "sent_id")
        trigger_index, entity_indices = _parse_anchor(trigger, indices)
        return TestSentence(sent_id, gender_of(gender), tuple(source.split()),
                            trigger_index, entity_indices)

    sentences: list[TestSentence] = []
    first_line: dict[int, int] = {}
    for lineno, sentence in read_rows(path, "\t", 5, FormatError, parse):
        first = first_line.setdefault(sentence.sent_id, lineno)
        if first != lineno:
            raise FormatError(f"{path}:{lineno}: duplicate sent_id {sentence.sent_id}, "
                              f"first given on line {first}")
        sentences.append(sentence)
    return sentences


def write_testset(sentences: Iterable[TestSentence], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sentence in sorted(sentences, key=lambda s: s.sent_id):
            trigger = "-" if sentence.trigger_index is None else str(sentence.trigger_index)
            indices = ",".join(str(i) for i in sorted(sentence.entity_indices))
            handle.write(
                f"{sentence.sent_id}\t{sentence.gold_gender}\t{' '.join(sentence.source)}"
                f"\t{trigger}\t{indices}\n"
            )
