"""Interchange file formats: n-best lists, alignments, entities, test sets.

These files are the stage boundaries of the pipeline, so external tools
(real translation systems, aligners, coreference models) can replace any
built-in stage. Every reader goes through the line rule in `morpho`: NFC,
blank lines and `#` comments skipped, errors carrying path and 1-based line
number. Plain-text sentence files are read by `read_sentences`, which has
no comment syntax.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Mapping, Sequence

from .decode import Hypothesis, NBestList
from .errors import FormatError, GenderBeamError
from .evaluation import TestSentence
from .morpho import GenderLabel, data_lines, read_rows, read_sentences
from .rerank import AlignmentMap, EntitySpec

NBEST_SEPARATOR = " ||| "


def _is_index(text: str) -> bool:
    """ASCII digits only: str.isdigit also accepts '²', which int rejects."""
    return text.isascii() and text.isdigit()


def _parse_int(text: str, path, lineno: int, what: str) -> int:
    """An id, rank or trigger field: ASCII digits, surrounding blanks allowed.
    int() alone would also take '1_0', '١', '-1' and '+2'."""
    text = text.strip()
    if _is_index(text):
        try:
            return int(text)
        except ValueError:  # past int's digit limit
            pass
    raise FormatError(f"{path}:{lineno}: {what} must be an integer, got {text!r}")


def parse_nbest(path) -> dict[int, NBestList]:
    """Moses-style lines `sent_id ||| token sequence ||| loglik`, grouped by id."""
    groups: dict[int, list[Hypothesis]] = {}
    for lineno, fields in read_rows(path, NBEST_SEPARATOR, 3, FormatError):
        sent_id = _parse_int(fields[0], path, lineno, "sent_id")
        tokens = tuple(fields[1].split())
        try:
            loglik = float(fields[2])
        except ValueError:
            raise FormatError(
                f"{path}:{lineno}: loglik must be a number, got {fields[2]!r}"
            ) from None
        if not math.isfinite(loglik):
            raise FormatError(f"{path}:{lineno}: loglik must be finite, got {fields[2]!r}")
        groups.setdefault(sent_id, []).append(Hypothesis(tokens, loglik))
    return {sent_id: NBestList(sent_id, hyps) for sent_id, hyps in groups.items()}


def write_nbest(lists: Iterable[NBestList], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for nbest in sorted(lists, key=lambda l: l.source_id):
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
    return _is_index(left) and _is_index(right)


def _parse_links(text: str, path, lineno: int) -> AlignmentMap:
    """One stripped link field; a rejected field is reported by its first bad pair."""
    if _LINK_FIELD.fullmatch(text) is None:
        bad = next(pair for pair in text.split() if not _is_pair(pair))
        raise FormatError(f"{path}:{lineno}: malformed alignment pair {bad!r}")
    ints = map(int, text.replace("-", " ").split())
    return AlignmentMap._trusted(frozenset(zip(ints, ints)))


def parse_alignments(path) -> dict[tuple[int, int], AlignmentMap]:
    """Pharaoh lines `sent_id<TAB>hyp_rank<TAB>0-0 1-2 ...`; links deduplicated.

    Ids, ranks and link indices are ASCII digits. A second line for the same
    (sent_id, hyp_rank) is an error naming both lines. Each distinct link
    field is parsed once, and lines with the same field share one map.
    """
    result: dict[tuple[int, int], AlignmentMap] = {}
    first_line: dict[tuple[int, int], int] = {}
    maps: dict[str, AlignmentMap] = {}  # this call only: no larger than result
    for lineno, fields in read_rows(path, "\t", 3, FormatError):
        key = (_parse_int(fields[0], path, lineno, "sent_id"),
               _parse_int(fields[1], path, lineno, "hyp_rank"))
        first = first_line.setdefault(key, lineno)
        if first != lineno:
            raise FormatError(f"{path}:{lineno}: duplicate alignment for sent_id {key[0]} "
                              f"rank {key[1]}, first given on line {first}")
        text = fields[2].strip()
        alignment = maps.get(text)
        if alignment is None:
            alignment = maps[text] = _parse_links(text, path, lineno)
        result[key] = alignment
    return result


def write_alignments(alignments: Mapping[tuple[int, int], AlignmentMap], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for (sent_id, rank), alignment in sorted(alignments.items()):
            links = " ".join(f"{s}-{t}" for s, t in sorted(alignment.links))
            handle.write(f"{sent_id}\t{rank}\t{links}\n")


def _parse_indices(text: str, path, lineno: int) -> frozenset[int]:
    indices = set()
    for part in text.split(","):
        part = part.strip()
        if not _is_index(part):
            raise FormatError(f"{path}:{lineno}: malformed token index {part!r}")
        indices.add(int(part))
    return frozenset(indices)


def read_entities(path) -> dict[int, list[EntitySpec]]:
    """Entity annotations `sent_id<TAB>gender<TAB>trigger_index<TAB>i,j,...`.

    A `-` trigger means no trigger position (named-entity mode). Multiple
    lines per sentence accumulate in file order.
    """
    result: dict[int, list[EntitySpec]] = {}
    for lineno, fields in read_rows(path, "\t", 4, FormatError):
        sent_id = _parse_int(fields[0], path, lineno, "sent_id")
        trigger = None if fields[2] == "-" else _parse_int(fields[2], path, lineno, "trigger_index")
        indices = _parse_indices(fields[3], path, lineno)
        try:
            spec = EntitySpec(trigger, GenderLabel(fields[1]), indices)
        except (GenderBeamError, ValueError) as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        result.setdefault(sent_id, []).append(spec)
    return result


def write_entities(entities: Mapping[int, Sequence[EntitySpec]], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sent_id in sorted(entities):
            for spec in entities[sent_id]:
                trigger = "-" if spec.trigger_index is None else str(spec.trigger_index)
                indices = ",".join(str(i) for i in sorted(spec.entity_indices))
                handle.write(f"{sent_id}\t{spec.required_gender}\t{trigger}\t{indices}\n")


def read_pronoun_table(path) -> dict[str, GenderLabel]:
    """Pronoun-to-gender TSV `pronoun<TAB>gender`; later rows win on repeats."""
    table: dict[str, GenderLabel] = {}
    for lineno, fields in read_rows(path, "\t", 2, FormatError):
        try:
            table[fields[0]] = GenderLabel(fields[1])
        except (GenderBeamError, ValueError) as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    return table


def read_word_list(path) -> tuple[str, ...]:
    """One word per data line; used for known-noun lists."""
    return tuple(line.strip() for _, line in data_lines(path))


def read_testset(path) -> list[TestSentence]:
    """Rows `sent_id<TAB>gold_gender<TAB>source sentence<TAB>trigger<TAB>i,j,...`."""
    sentences = []
    for lineno, fields in read_rows(path, "\t", 5, FormatError):
        sent_id = _parse_int(fields[0], path, lineno, "sent_id")
        trigger = None if fields[3] == "-" else _parse_int(fields[3], path, lineno, "trigger_index")
        indices = _parse_indices(fields[4], path, lineno)
        try:
            sentences.append(
                TestSentence(sent_id, GenderLabel(fields[1]), tuple(fields[2].split()), trigger, indices)
            )
        except (GenderBeamError, ValueError) as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
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
