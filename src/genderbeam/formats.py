"""Interchange file formats: n-best lists, alignments, entities, test sets.

These files are the stage boundaries of the pipeline, so external tools
(real translation systems, aligners, coreference models) can replace any
built-in stage. Every reader hands a row parser to `morpho.read_rows`,
which applies the line rule (NFC, blank lines and `#` comments skipped) and
names the path and 1-based line number of any error the parser raises. Only
checks across rows, such as a duplicate alignment, name lines themselves.
Every writer hands its rows to `morpho.write_rows`, the inverse, which
refuses a row that would not read back as itself before the file is opened.
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
from .morpho import GenderLabel, _gender_parser, _is_token, _not_token, data_lines, read_rows, read_sentences, write_rows
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


def _space_joined(tokens: Sequence[str], where: str) -> str:
    """tokens joined by spaces, as the readers split them back. A token that
    would read back otherwise, one that is empty or holds str.split
    whitespace, raises ValueError naming where and the token."""
    text = " ".join(tokens)
    if text.split() != list(tokens):
        token = next(token for token in tokens if not _is_token(token))
        raise ValueError(f"{where}: token {token!r} would not read back as itself")
    return text


def _id_field(value: int, what: str) -> str:
    """value as the id or rank field _parse_int reads back. A negative value
    raises ValueError naming what, since the reader takes only digits."""
    if value < 0:
        raise ValueError(f"{what} {value} is negative; it would not read back")
    return str(value)


def write_nbest(lists: Iterable[NBestList], path) -> None:
    """Lines parse_nbest reads back, ordered by sent_id.

    A list that would read back otherwise raises ValueError naming its
    sent_id before the file is opened: a negative sent_id, which the reader
    refuses; an empty list, which has no line; a sent_id given twice, whose
    lists would read back as one; and, naming the 0-based rank too, an
    infinite loglik, which the reader refuses, or a token that is empty or
    holds str.split whitespace. write_rows refuses
    any other line that would read back otherwise, such as one whose tokens
    hold the separator or are not NFC.
    """
    def rows():
        previous = None
        for nbest in sorted(lists, key=lambda l: l.source_id):
            sent_id = _id_field(nbest.source_id, "sent_id")
            if not nbest:
                raise ValueError(f"sent_id {sent_id}: an empty list has no line to read back")
            if nbest.source_id == previous:
                raise ValueError(f"sent_id {sent_id}: given twice; its lists would read back as one")
            previous = nbest.source_id
            for rank, hyp in enumerate(nbest):
                where = f"sent_id {sent_id} rank {rank}"
                if not math.isfinite(hyp.loglik):
                    raise ValueError(f"{where}: loglik {hyp.loglik!r} is not finite")
                yield sent_id, _space_joined(hyp.tokens, where), repr(hyp.loglik)

    write_rows(path, NBEST_SEPARATOR, rows())


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
    """Rows parse_alignments reads back, ordered by key; a negative sent_id
    or rank raises ValueError before the file is opened."""
    write_rows(path, "\t", ((_id_field(sent_id, "sent_id"), _id_field(rank, f"sent_id {sent_id} rank"),
                             " ".join(f"{s}-{t}" for s, t in sorted(alignment)))
                            for (sent_id, rank), alignment in sorted(alignments.items())))


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


def _anchor_fields(row: EntitySpec | TestSentence) -> tuple[str, str]:
    """The trigger and entity-index fields of row: the inverse of _parse_anchor."""
    trigger = "-" if row.trigger_index is None else str(row.trigger_index)
    return trigger, ",".join(map(str, sorted(row.entity_indices)))


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
    """Rows read_entities reads back, ordered by sent_id. A negative sent_id,
    or an empty list, which has no row, raises ValueError before the file
    is opened."""
    def rows():
        for sent_id, specs in sorted(entities.items()):
            field = _id_field(sent_id, "sent_id")
            if not specs:
                raise ValueError(f"sent_id {sent_id}: an empty list has no row to read back")
            for spec in specs:
                yield field, spec.required_gender.tag, *_anchor_fields(spec)

    write_rows(path, "\t", rows())


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
    """Rows read_testset reads back, ordered by sent_id. A negative sent_id,
    one given twice, or a source token that is empty or holds str.split
    whitespace raises ValueError naming the sent_id before the file is
    opened."""
    def rows():
        previous = None
        for s in sorted(sentences, key=lambda s: s.sent_id):
            sent_id = _id_field(s.sent_id, "sent_id")
            if s.sent_id == previous:
                raise ValueError(f"sent_id {sent_id}: given twice")
            previous = s.sent_id
            yield sent_id, s.gold_gender.tag, _space_joined(s.source, f"sent_id {sent_id}"), *_anchor_fields(s)

    write_rows(path, "\t", rows())
