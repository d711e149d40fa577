"""Gender lexicon, gender queries for target tokens, and reinflection pairs.

The lexicon is surface-form based: each entry ties one surface form to a
lemma, an opaque feature string, and a gender label. Reinflection pairs are
derived from entries that share (lemma, features) but differ in gender.
Placeholder patterns extend gender lookup to tokens absent from the lexicon.
The line readers and the row writer that every file format shares are
here too: a reader passes `read_rows` a parser for one row's fields, whose
errors say what is wrong, and `read_rows` names the path and line. A writer
hands `write_rows` the fields of each row, and `write_rows` refuses, naming
the line, any row that `read_rows` would not give back as the same fields.
"""

from __future__ import annotations

import logging
import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import FormatError, GenderBeamError, LexiconError, PairSetError, PatternError

logger = logging.getLogger(__name__)
T = TypeVar("T")

# the sentence boundaries a scorer sees around every hypothesis
BOS = "<s>"
EOS = "</s>"


def _is_token(text: str) -> bool:
    """Whether text is a token: nonempty and free of str.split whitespace,
    so that it is written space-joined and read back by str.split as itself."""
    return text.split() == [text]


def _not_token(text: str) -> str:
    return f"token {text!r} is empty or holds whitespace"


@dataclass(frozen=True, order=True)
class GenderLabel:
    """A grammatical gender tag: one of the built-ins or a user-registered label."""

    tag: str

    def __post_init__(self) -> None:
        if not _is_token(self.tag):
            raise ValueError(f"gender tag must be a nonempty token without whitespace: {self.tag!r}")

    def __str__(self) -> str:
        return self.tag


MASCULINE = GenderLabel("masculine")
FEMININE = GenderLabel("feminine")
NEUTER = GenderLabel("neuter")
NONE = GenderLabel("none")

BUILTIN_LABELS = frozenset({MASCULINE, FEMININE, NEUTER, NONE})


def _gender_parser(user_labels: Iterable[str] | None) -> Callable[[str], GenderLabel]:
    """The gender-tag parser of one reader call. Each tag gives one shared
    label: a built-in tag gives its constant, any other tag a label built at
    its first row, so a malformed one fails there. A tag outside the
    built-ins must be one of user_labels; with None, any well-formed tag is
    taken."""
    labels = {label.tag: label for label in BUILTIN_LABELS}
    allowed = None if user_labels is None else frozenset(user_labels)

    def parse(tag: str) -> GenderLabel:
        label = labels.get(tag)
        if label is None:
            if allowed is not None and tag not in allowed:
                raise ValueError(f"unknown gender tag {tag!r}")
            label = labels[tag] = GenderLabel(tag)
        return label

    return parse


@dataclass(frozen=True, order=True)
class LexiconEntry:
    """One surface form with its lemma, feature string, and gender."""

    surface: str
    lemma: str
    features: str
    gender: GenderLabel

    def __post_init__(self) -> None:
        if not _is_token(self.surface):
            raise ValueError(f"lexicon entry surface must be a token: {_not_token(self.surface)}")


PATTERN_KINDS = ("exact-token", "prefix", "suffix")


@dataclass(frozen=True)
class PlaceholderPattern:
    """Fallback gender rule for tokens with no lexicon entry.

    kind is one of "exact-token", "prefix", "suffix". Patterns are consulted
    in registration order and the first match wins. The text of every kind
    must be a token, since a token holds no whitespace to match.
    """

    kind: str
    text: str
    gender: GenderLabel

    def __post_init__(self) -> None:
        if self.kind not in PATTERN_KINDS:
            raise PatternError(f"unknown pattern kind {self.kind!r}; expected one of {PATTERN_KINDS}")
        if not _is_token(self.text):
            raise PatternError(f"pattern text must be a token: {_not_token(self.text)}")

    def matches(self, token: str) -> bool:
        if self.kind == "exact-token":
            return token == self.text
        if self.kind == "prefix":
            return token.startswith(self.text)
        return token.endswith(self.text)


class GenderLexicon:
    """Immutable set of lexicon entries, plus patterns.

    Entry lookup always wins over patterns; patterns are only consulted when a
    token has no entries at all. A table from each surface to the set of its
    entries' genders, one item per surface, answers analyze_gender for every
    token with entries.
    """

    def __init__(
        self,
        entries: Iterable[LexiconEntry] = (),
        patterns: Iterable[PlaceholderPattern] = (),
    ) -> None:
        entries = tuple(entries)
        genders: dict[str, set[GenderLabel]] = {}
        lemma_for: dict[tuple[str, str, GenderLabel], str] = {}
        # in the caller's order, so a conflict names the same pair under any hash seed
        for entry in entries:
            key = (entry.surface, entry.features, entry.gender)
            known = lemma_for.get(key)
            if known is not None and known != entry.lemma:
                raise LexiconError(
                    f"conflicting lemmas {known!r} and {entry.lemma!r} for "
                    f"surface {entry.surface!r} features {entry.features!r} gender {entry.gender}"
                )
            lemma_for[key] = entry.lemma
            genders.setdefault(entry.surface, set()).add(entry.gender)
        self._entries = frozenset(entries)
        self._genders = {surface: frozenset(group) for surface, group in genders.items()}
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

    def all_entries(self) -> Iterator[LexiconEntry]:
        return iter(sorted(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GenderLexicon):
            return NotImplemented
        return self._entries == other._entries and self._patterns == other._patterns

    def __hash__(self) -> int:
        return hash((self._entries, self._patterns))

    def __repr__(self) -> str:
        return f"GenderLexicon({len(self)} entries, {len(self._patterns)} patterns)"


def _check_pair(source: str, target: str) -> None:
    """Refuse a pair with a form that is not a token, or a reflexive one."""
    for form in (source, target):
        if not _is_token(form):
            raise PairSetError(f"pair {source!r} -> {target!r}: {_not_token(form)}")
    if source == target:
        raise PairSetError(f"reflexive pair {source!r} -> {target!r} not allowed")


class ReinflectionPairSet:
    """Bidirectional surface substitutions (source form, target form, target gender).

    Closed under reversal and free of reflexive pairs by construction. Both
    forms of a pair are tokens. Pairs are checked in sorted order, so a set
    with several bad pairs names the same one under any hash seed.
    """

    def __init__(self, pairs: Iterable[tuple[str, str, GenderLabel]]) -> None:
        self._pairs = pair_set = frozenset(pairs)  # first, so a rejected set has a repr
        forms = {(a, b) for a, b, _ in pair_set}
        by_source: dict[str, list[tuple[str, GenderLabel]]] = {}
        for a, b, gender in sorted(pair_set):
            _check_pair(a, b)
            if (b, a) not in forms:
                raise PairSetError(f"pair {a!r} -> {b!r} missing its reverse")
            by_source.setdefault(a, []).append((b, gender))
        self._by_source = {source: tuple(targets) for source, targets in by_source.items()}

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
    genders = lexicon._genders.get(token)
    if genders is not None:
        return genders
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
def read_lines(path, error: type[Exception] = FormatError) -> Iterator[tuple[int, str]]:
    """(lineno, line) for every line of a UTF-8 file, counted from 1, without
    its newline and NFC-normalized: reinflections often differ only in
    accented characters. Bytes that are not UTF-8 raise error naming path
    and line; the file is searched for that line only once decoding fails."""
    with open(path, encoding="utf-8") as handle:
        try:
            for lineno, raw in enumerate(handle, 1):
                yield lineno, unicodedata.normalize("NFC", raw.rstrip("\n"))
        except UnicodeDecodeError as exc:
            raise error(_undecodable(path, exc)) from exc


def count_lines(path) -> Iterator[tuple[str, int]]:
    """(line, count) for each distinct raw line of a UTF-8 file, in the order
    each first occurs, the line as read_lines gives it. The raw lines, line
    ends included, are counted by Counter in C, and only each distinct one
    is normalized, so spellings of one text that differ before NFC or in
    their line end come as separate items. Bytes that are not UTF-8 raise
    FormatError naming path and line, as in read_lines."""
    with open(path, encoding="utf-8") as handle:
        try:
            counts = Counter(handle)
        except UnicodeDecodeError as exc:
            raise FormatError(_undecodable(path, exc)) from exc
    for raw, count in counts.items():
        yield unicodedata.normalize("NFC", raw.rstrip("\n")), count


def _undecodable(path, exc: UnicodeDecodeError) -> str:
    """`path:line: reason` for the first line of path that is not UTF-8.
    Lines end as in text mode: at \\n, \\r or \\r\\n, none of which can
    occur inside a UTF-8 sequence. Each is decoded with its line end, so
    the reason is the one text mode gives; `path: exc` if no line fails."""
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle.read().splitlines(keepends=True), 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as line_exc:
                return f"{path}:{lineno}: {line_exc}"
    return f"{path}: {exc}"


def data_lines(path, error: type[Exception] = FormatError) -> Iterator[tuple[int, str]]:
    """read_lines of an annotated file: blank lines and lines whose first
    non-blank character is '#' are skipped."""
    for lineno, line in read_lines(path, error):
        if line.strip() and not line.lstrip().startswith("#"):
            yield lineno, line


def read_rows(path, sep: str, count: int, error: type[Exception],
              parse: Callable[..., T]) -> Iterator[tuple[int, T]]:
    """(lineno, parse(*fields)) for each data line split on sep. A line with
    other than count fields, or a ValueError or GenderBeamError from parse,
    raises error naming path and line: a row parser says what is wrong with
    its fields and this names where."""
    name = "tab" if sep == "\t" else f"'{sep.strip()}'"
    for lineno, line in data_lines(path, error):
        fields = line.split(sep)
        if len(fields) != count:
            raise error(f"{path}:{lineno}: expected {count} {name}-separated fields, got {len(fields)}")
        try:
            row = parse(*fields)
        except (ValueError, GenderBeamError) as exc:
            raise error(f"{path}:{lineno}: {exc}") from exc
        yield lineno, row


def write_rows(path, sep: str, rows: Iterable[Sequence[str]]) -> None:
    """The inverse of read_rows: each row's fields joined by sep, one line per
    row. A row that read_rows would not give back as its fields raises
    ValueError naming its 1-based line and why, before path is opened. The
    lines are held encoded, a little over the file's size, until then."""
    lines = []
    for lineno, row in enumerate(rows, 1):
        line = sep.join(row)
        reason = (f"a field holds {sep!r} or a line break"
                  if line.split(sep) != list(row) or "\n" in line or "\r" in line
                  else "text is not NFC" if not unicodedata.is_normalized("NFC", line)
                  else "a blank or comment line" if not line.strip() or line.lstrip().startswith("#")
                  else None)
        if reason is None:
            try:
                lines.append(f"{line}\n".encode("utf-8"))
            except UnicodeEncodeError:  # a lone surrogate
                reason = "text is not UTF-8-encodable"
        if reason is not None:
            raise ValueError(f"{path}:{lineno}: {reason}: {line!r}")
    with open(path, "wb") as f:
        f.writelines(lines)


def read_sentences(path) -> Iterator[tuple[str, ...]]:
    """The whitespace tokens of each line of a plain-text sentence file, in
    line order, so a sentence's id is its 0-based line number; a blank line
    yields the empty tuple. Plain text has no comment syntax."""
    for _, line in read_lines(path):
        yield tuple(line.split())


def load_lexicon(path: str | Path, user_labels: Iterable[str] = ()) -> GenderLexicon:
    """Load a lexicon TSV: surface<TAB>lemma<TAB>features<TAB>gender.

    Gender tags outside the built-ins must be declared via user_labels.
    """
    path = Path(path)
    gender_of = _gender_parser(user_labels)
    entries: list[LexiconEntry] = []
    lemma_for: dict[tuple[str, str, GenderLabel], tuple[str, int]] = {}
    for lineno, entry in read_rows(path, "\t", 4, LexiconError, lambda surface, lemma, features, tag:
                                   LexiconEntry(surface, lemma, features, gender_of(tag))):
        key = (entry.surface, entry.features, entry.gender)
        known = lemma_for.get(key)
        if known is not None and known[0] != entry.lemma:
            raise LexiconError(
                f"{path}:{lineno}: lemma {entry.lemma!r} conflicts with {known[0]!r} from line {known[1]}"
            )
        lemma_for[key] = (entry.lemma, lineno)
        entries.append(entry)
    lexicon = GenderLexicon(entries)
    logger.info("loaded %d lexicon entries from %s", len(lexicon), path)
    return lexicon


def write_lexicon(lexicon: GenderLexicon, path: str | Path) -> None:
    """Write entries as the lexicon TSV format (patterns are not included)."""
    write_rows(path, "\t", ((e.surface, e.lemma, e.features, e.gender.tag) for e in lexicon.all_entries()))


def read_pairs(path: str | Path, user_labels: Iterable[str] = ()) -> ReinflectionPairSet:
    """Read a pair-set TSV: source_form<TAB>target_form<TAB>target_gender.

    A reflexive row or a form that is not a token is an error naming its
    line, and so is the first pair whose reverse is missing.
    """
    gender_of = _gender_parser(user_labels)

    def parse(source: str, target: str, tag: str) -> tuple[str, str, GenderLabel]:
        gender = gender_of(tag)
        _check_pair(source, target)
        return source, target, gender

    first_line: dict[tuple[str, str, GenderLabel], int] = {}
    for lineno, pair in read_rows(path, "\t", 3, PairSetError, parse):
        first_line.setdefault(pair, lineno)
    forms = {(source, target) for source, target, _ in first_line}
    for (source, target, _), lineno in first_line.items():
        if (target, source) not in forms:
            raise PairSetError(f"{path}:{lineno}: pair {source!r} -> {target!r} missing its reverse")
    return ReinflectionPairSet(first_line)


def write_pairs(pairs: ReinflectionPairSet, path: str | Path) -> None:
    write_rows(path, "\t", ((source, target, gender.tag) for source, target, gender in pairs))


def read_patterns(path: str | Path) -> tuple[PlaceholderPattern, ...]:
    """Read a patterns TSV: kind<TAB>text<TAB>gender.

    Pattern files may introduce user gender labels (any well-formed tag is
    accepted here); file order is preserved because first match wins. A
    second row with the same kind and text is an error naming both lines.
    """
    gender_of = _gender_parser(None)
    patterns: list[PlaceholderPattern] = []
    first_line: dict[tuple[str, str], int] = {}
    for lineno, pattern in read_rows(path, "\t", 3, PatternError, lambda kind, text, tag:
                                     PlaceholderPattern(kind, text, gender_of(tag))):
        first = first_line.setdefault((pattern.kind, pattern.text), lineno)
        if first != lineno:
            raise PatternError(f"{path}:{lineno}: duplicate placeholder pattern {pattern.kind} "
                               f"{pattern.text!r}, first given on line {first}")
        patterns.append(pattern)
    return tuple(patterns)
