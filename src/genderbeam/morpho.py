"""Gender lexicon, gender queries for target tokens, and reinflection pairs.

The lexicon is surface-form based: each entry ties one surface form to a
lemma, an opaque feature string, and a gender label. Reinflection pairs are
derived from entries that share (lemma, features) but differ in gender.
Placeholder patterns extend gender lookup to tokens absent from the lexicon.
The line readers that every file format shares are here too.
"""

from __future__ import annotations

import logging
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import LexiconError, PairSetError, PatternError

logger = logging.getLogger(__name__)


@dataclass(frozen=True, order=True)
class GenderLabel:
    """A grammatical gender tag: one of the built-ins or a user-registered label."""

    tag: str

    def __post_init__(self) -> None:
        if not self.tag or any(ch.isspace() for ch in self.tag):
            raise ValueError(f"gender tag must be a nonempty token without whitespace: {self.tag!r}")

    def __str__(self) -> str:
        return self.tag


MASCULINE = GenderLabel("masculine")
FEMININE = GenderLabel("feminine")
NEUTER = GenderLabel("neuter")
NONE = GenderLabel("none")

BUILTIN_LABELS = frozenset({MASCULINE, FEMININE, NEUTER, NONE})


def _allowed_tags(user_labels: Iterable[str]) -> frozenset[str]:
    tags = {label.tag for label in BUILTIN_LABELS}
    tags.update(user_labels)
    return frozenset(tags)


@dataclass(frozen=True, order=True)
class LexiconEntry:
    """One surface form with its lemma, feature string, and gender."""

    surface: str
    lemma: str
    features: str
    gender: GenderLabel

    def __post_init__(self) -> None:
        if not self.surface:
            raise ValueError("lexicon entry surface must be nonempty")


PATTERN_KINDS = ("exact-token", "prefix", "suffix")


@dataclass(frozen=True)
class PlaceholderPattern:
    """Fallback gender rule for tokens with no lexicon entry.

    kind is one of "exact-token", "prefix", "suffix". Patterns are consulted
    in registration order and the first match wins.
    """

    kind: str
    text: str
    gender: GenderLabel

    def __post_init__(self) -> None:
        if self.kind not in PATTERN_KINDS:
            raise PatternError(f"unknown pattern kind {self.kind!r}; expected one of {PATTERN_KINDS}")
        if not self.text:
            raise PatternError("pattern text must be nonempty")

    def matches(self, token: str) -> bool:
        if self.kind == "exact-token":
            return token == self.text
        if self.kind == "prefix":
            return token.startswith(self.text)
        return token.endswith(self.text)


class GenderLexicon:
    """Immutable multimap from surface form to lexicon entries, plus patterns.

    Entry lookup always wins over patterns; patterns are only consulted when a
    token has no entries at all.
    """

    def __init__(
        self,
        entries: Iterable[LexiconEntry] = (),
        patterns: Iterable[PlaceholderPattern] = (),
    ) -> None:
        by_surface: dict[str, set[LexiconEntry]] = {}
        lemma_for: dict[tuple[str, str, GenderLabel], str] = {}
        for entry in entries:
            key = (entry.surface, entry.features, entry.gender)
            known = lemma_for.get(key)
            if known is not None and known != entry.lemma:
                raise LexiconError(
                    f"conflicting lemmas {known!r} and {entry.lemma!r} for "
                    f"surface {entry.surface!r} features {entry.features!r} gender {entry.gender}"
                )
            lemma_for[key] = entry.lemma
            by_surface.setdefault(entry.surface, set()).add(entry)
        self._by_surface: dict[str, frozenset[LexiconEntry]] = {
            surface: frozenset(group) for surface, group in by_surface.items()
        }
        pattern_list = tuple(patterns)
        seen_keys: set[tuple[str, str]] = set()
        for pattern in pattern_list:
            key = (pattern.kind, pattern.text)
            if key in seen_keys:
                raise PatternError(f"duplicate placeholder pattern {pattern.kind} {pattern.text!r}")
            seen_keys.add(key)
        self._patterns = pattern_list

    @property
    def patterns(self) -> tuple[PlaceholderPattern, ...]:
        return self._patterns

    def entries_for(self, surface: str) -> frozenset[LexiconEntry]:
        return self._by_surface.get(surface, frozenset())

    def all_entries(self) -> Iterator[LexiconEntry]:
        for surface in sorted(self._by_surface):
            yield from sorted(self._by_surface[surface])

    def __len__(self) -> int:
        return sum(len(group) for group in self._by_surface.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GenderLexicon):
            return NotImplemented
        return self._by_surface == other._by_surface and self._patterns == other._patterns

    def __hash__(self) -> int:
        return hash((frozenset(self._by_surface.items()), self._patterns))

    def __repr__(self) -> str:
        return f"GenderLexicon({len(self)} entries, {len(self._patterns)} patterns)"


class ReinflectionPairSet:
    """Bidirectional surface substitutions (source form, target form, target gender).

    Closed under reversal and free of reflexive pairs by construction.
    """

    def __init__(self, pairs: Iterable[tuple[str, str, GenderLabel]]) -> None:
        pair_set = frozenset(pairs)
        forms = {(a, b) for a, b, _ in pair_set}
        for a, b, _ in pair_set:
            if a == b:
                raise PairSetError(f"reflexive pair {a!r} -> {b!r} not allowed")
            if (b, a) not in forms:
                raise PairSetError(f"pair {a!r} -> {b!r} missing its reverse")
        self._pairs = pair_set
        by_source: dict[str, list[tuple[str, GenderLabel]]] = {}
        for a, b, gender in pair_set:
            by_source.setdefault(a, []).append((b, gender))
        self._by_source = {
            source: tuple(sorted(targets)) for source, targets in by_source.items()
        }

    @property
    def pairs(self) -> frozenset[tuple[str, str, GenderLabel]]:
        return self._pairs

    def substitutions_for(self, word: str) -> tuple[tuple[str, GenderLabel], ...]:
        """All (target form, target gender) rewrites of word, sorted for determinism."""
        return self._by_source.get(word, ())

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[tuple[str, str, GenderLabel]]:
        return iter(sorted(self._pairs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReinflectionPairSet):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        return f"ReinflectionPairSet({len(self._pairs)} pairs)"


def analyze_gender(lexicon: GenderLexicon, token: str) -> frozenset[GenderLabel]:
    """Union of genders over the token's entries; pattern fallback when none."""
    entries = lexicon.entries_for(token)
    if entries:
        return frozenset(entry.gender for entry in entries)
    for pattern in lexicon.patterns:
        if pattern.matches(token):
            return frozenset({pattern.gender})
    return frozenset()


def build_reinflection_pairs(lexicon: GenderLexicon) -> ReinflectionPairSet:
    """Directed substitutions between same-(lemma, features) entries of differing gender."""
    groups: dict[tuple[str, str], list[LexiconEntry]] = {}
    for entry in lexicon.all_entries():
        groups.setdefault((entry.lemma, entry.features), []).append(entry)
    pairs: set[tuple[str, str, GenderLabel]] = set()
    for group in groups.values():
        for a in group:
            for b in group:
                if a.gender != b.gender and a.surface != b.surface:
                    pairs.add((a.surface, b.surface, b.gender))
    return ReinflectionPairSet(pairs)


def register_placeholder_patterns(
    lexicon: GenderLexicon, patterns: Iterable[PlaceholderPattern]
) -> GenderLexicon:
    """New lexicon with the given patterns appended after any existing ones."""
    return GenderLexicon(lexicon.all_entries(), lexicon.patterns + tuple(patterns))


# The line rule of every file the package reads lives here because morpho
# imports no other package module, so decode and formats can both use it.
def read_lines(path) -> Iterator[tuple[int, str]]:
    """(lineno, line) for every line of a UTF-8 file, counted from 1, without
    its newline and NFC-normalized: reinflections often differ only in
    accented characters."""
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            yield lineno, unicodedata.normalize("NFC", raw.rstrip("\n"))


def data_lines(path) -> Iterator[tuple[int, str]]:
    """read_lines of an annotated file: blank lines and lines whose first
    non-blank character is '#' are skipped."""
    for lineno, line in read_lines(path):
        if line.strip() and not line.lstrip().startswith("#"):
            yield lineno, line


def read_rows(path, sep: str, count: int, error: type[Exception]) -> Iterator[tuple[int, list[str]]]:
    """(lineno, fields) for each data line split on sep; a line with other
    than count fields raises error naming path and line."""
    name = "tab" if sep == "\t" else f"'{sep.strip()}'"
    for lineno, line in data_lines(path):
        fields = line.split(sep)
        if len(fields) != count:
            raise error(f"{path}:{lineno}: expected {count} {name}-separated fields, got {len(fields)}")
        yield lineno, fields


def read_sentences(path) -> Iterator[tuple[str, ...]]:
    """The whitespace tokens of each line of a plain-text sentence file, in
    line order, so a sentence's id is its 0-based line number; a blank line
    yields the empty tuple. Plain text has no comment syntax."""
    for _, line in read_lines(path):
        yield tuple(line.split())


def _parse_gender(tag: str, allowed: frozenset[str], where: str) -> GenderLabel:
    if tag not in allowed:
        raise LexiconError(f"{where}: unknown gender tag {tag!r}")
    return GenderLabel(tag)


def load_lexicon(path: str | Path, user_labels: Iterable[str] = ()) -> GenderLexicon:
    """Load a lexicon TSV: surface<TAB>lemma<TAB>features<TAB>gender.

    Gender tags outside the built-ins must be declared via user_labels.
    """
    path = Path(path)
    allowed = _allowed_tags(user_labels)
    entries: list[LexiconEntry] = []
    lemma_for: dict[tuple[str, str, GenderLabel], tuple[str, int]] = {}
    for lineno, (surface, lemma, features, tag) in read_rows(path, "\t", 4, LexiconError):
        gender = _parse_gender(tag, allowed, f"{path}:{lineno}")
        try:
            entry = LexiconEntry(surface, lemma, features, gender)
        except ValueError as exc:
            raise LexiconError(f"{path}:{lineno}: {exc}") from exc
        key = (surface, features, gender)
        known = lemma_for.get(key)
        if known is not None and known[0] != lemma:
            raise LexiconError(
                f"{path}:{lineno}: lemma {lemma!r} conflicts with {known[0]!r} from line {known[1]}"
            )
        lemma_for[key] = (lemma, lineno)
        entries.append(entry)
    lexicon = GenderLexicon(entries)
    logger.info("loaded %d lexicon entries from %s", len(lexicon), path)
    return lexicon


def write_lexicon(lexicon: GenderLexicon, path: str | Path) -> None:
    """Write entries as the lexicon TSV format (patterns are not included)."""
    with open(path, "w", encoding="utf-8") as handle:
        for entry in lexicon.all_entries():
            handle.write(f"{entry.surface}\t{entry.lemma}\t{entry.features}\t{entry.gender}\n")


def read_pairs(path: str | Path, user_labels: Iterable[str] = ()) -> ReinflectionPairSet:
    """Read a pair-set TSV: source_form<TAB>target_form<TAB>target_gender."""
    path = Path(path)
    allowed = _allowed_tags(user_labels)
    pairs: set[tuple[str, str, GenderLabel]] = set()
    for lineno, (source, target, tag) in read_rows(path, "\t", 3, PairSetError):
        try:
            gender = _parse_gender(tag, allowed, f"{path}:{lineno}")
        except LexiconError as exc:
            raise PairSetError(str(exc)) from exc
        pairs.add((source, target, gender))
    return ReinflectionPairSet(pairs)


def write_pairs(pairs: ReinflectionPairSet, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for source, target, gender in pairs:
            handle.write(f"{source}\t{target}\t{gender}\n")


def read_patterns(path: str | Path) -> tuple[PlaceholderPattern, ...]:
    """Read a patterns TSV: kind<TAB>text<TAB>gender.

    Pattern files may introduce user gender labels (any well-formed tag is
    accepted here); file order is preserved because first match wins.
    """
    path = Path(path)
    patterns: list[PlaceholderPattern] = []
    for lineno, (kind, text, tag) in read_rows(path, "\t", 3, PatternError):
        try:
            patterns.append(PlaceholderPattern(kind, text, GenderLabel(tag)))
        except (PatternError, ValueError) as exc:
            raise PatternError(f"{path}:{lineno}: {exc}") from exc
    return tuple(patterns)


def write_patterns(patterns: Iterable[PlaceholderPattern], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for pattern in patterns:
            handle.write(f"{pattern.kind}\t{pattern.text}\t{pattern.gender}\n")
