import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genderbeam.errors import FormatError, LexiconError, PairSetError, PatternError
from genderbeam.morpho import (
    BUILTIN_LABELS,
    FEMININE,
    MASCULINE,
    NEUTER,
    PATTERN_KINDS,
    GenderLabel,
    GenderLexicon,
    LexiconEntry,
    PlaceholderPattern,
    ReinflectionPairSet,
    analyze_gender,
    build_reinflection_pairs,
    load_lexicon,
    read_pairs,
    read_patterns,
    read_rows,
    register_placeholder_patterns,
    write_lexicon,
    write_pairs,
    write_rows,
)
from helpers import AWKWARD_TEXT, AWKWARD_TOKENS, reference_analyze_gender, written

NEUTRAL_NEW = GenderLabel("neutral-new")


def entry(surface, lemma=None, features="NOUN.sg", gender=MASCULINE):
    return LexiconEntry(surface, lemma if lemma is not None else surface, features, gender)


def toy_lexicon():
    return GenderLexicon(
        [
            LexiconEntry("el", "el", "ART.sg", MASCULINE),
            LexiconEntry("la", "el", "ART.sg", FEMININE),
            LexiconEntry("médico", "médico", "NOUN.sg", MASCULINE),
            LexiconEntry("médica", "médico", "NOUN.sg", FEMININE),
        ]
    )


class TestGenderLabel:
    def test_builtins_distinct(self):
        assert len(BUILTIN_LABELS) == 4

    def test_equality_is_tag_match(self):
        assert GenderLabel("masculine") == MASCULINE
        assert GenderLabel("feminine") != MASCULINE

    @pytest.mark.parametrize("bad", ["", " ", "two words", "tab\tsep"])
    def test_rejects_malformed_tags(self, bad):
        with pytest.raises(ValueError):
            GenderLabel(bad)

    def test_user_label_allowed(self):
        assert NEUTRAL_NEW.tag == "neutral-new"


class TestLexiconLoading:
    def test_basic_row(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("médico\tmédico\tNOUN.sg\tmasculine\n", encoding="utf-8")
        lexicon = load_lexicon(path)
        assert analyze_gender(lexicon, "médico") == {MASCULINE}

    def test_empty_file(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("", encoding="utf-8")
        lexicon = load_lexicon(path)
        assert len(lexicon) == 0
        assert analyze_gender(lexicon, "anything") == frozenset()

    def test_duplicate_rows_collapse(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("el\tel\tART.sg\tmasculine\n" * 3, encoding="utf-8")
        assert len(load_lexicon(path)) == 1

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text(
            "# definite articles\n\nel\tel\tART.sg\tmasculine\n", encoding="utf-8"
        )
        assert len(load_lexicon(path)) == 1

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("el\tel\tART.sg\tmasculine\nla\tel\n", encoding="utf-8")
        with pytest.raises(LexiconError, match=r":2:"):
            load_lexicon(path)

    def test_unknown_gender_tag_names_line(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("dier\tdier\tPRON\tneutral-new\n", encoding="utf-8")
        with pytest.raises(LexiconError, match=r":1:.*neutral-new"):
            load_lexicon(path)

    def test_user_labels_admit_new_tags(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("dier\tdier\tPRON\tneutral-new\n", encoding="utf-8")
        lexicon = load_lexicon(path, user_labels=["neutral-new"])
        assert analyze_gender(lexicon, "dier") == {NEUTRAL_NEW}

    def test_conflicting_lemma_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text(
            "la\tel\tART.sg\tfeminine\nla\tlo\tART.sg\tfeminine\n", encoding="utf-8"
        )
        with pytest.raises(LexiconError, match=r":2:"):
            load_lexicon(path)

    @pytest.mark.parametrize("lemmas", [("el", "lo", "le"), ("le", "lo", "el")])
    def test_conflict_names_the_first_two_lemmas_given(self, lemmas):
        # entries are checked in the caller's order, never in the entry set's
        entries = [LexiconEntry("la", lemma, "ART.sg", FEMININE) for lemma in lemmas]
        with pytest.raises(LexiconError) as info:
            GenderLexicon(entries)
        assert str(info.value) == (f"conflicting lemmas {lemmas[0]!r} and {lemmas[1]!r} for "
                                   "surface 'la' features 'ART.sg' gender feminine")

    def test_nfc_normalization_on_read(self, tmp_path):
        # decomposed e + combining acute must collapse to the precomposed form
        path = tmp_path / "lex.tsv"
        path.write_text("médica\tmédico\tNOUN.sg\tfeminine\n", encoding="utf-8")
        lexicon = load_lexicon(path)
        assert analyze_gender(lexicon, "médica") == {FEMININE}


class TestAnalyzeGender:
    def test_el_is_masculine(self):
        assert analyze_gender(toy_lexicon(), "el") == {MASCULINE}

    def test_unknown_token_empty(self):
        assert analyze_gender(toy_lexicon(), "zzzz") == frozenset()

    def test_suffix_pattern_fallback(self):
        lexicon = register_placeholder_patterns(
            toy_lexicon(), [PlaceholderPattern("suffix", "NEND", NEUTRAL_NEW)]
        )
        assert analyze_gender(lexicon, "MitarbeiterNEND") == {NEUTRAL_NEW}

    def test_ambiguous_form_returns_union(self):
        lexicon = GenderLexicon(
            [
                LexiconEntry("estudiante", "estudiante", "NOUN.sg", MASCULINE),
                LexiconEntry("estudiante", "estudiante", "NOUN.sg", FEMININE),
            ]
        )
        assert analyze_gender(lexicon, "estudiante") == {MASCULINE, FEMININE}

    def test_pure(self):
        lexicon = toy_lexicon()
        first = analyze_gender(lexicon, "médica")
        assert all(analyze_gender(lexicon, "médica") == first for _ in range(5))

    @given(
        entries=st.lists(st.builds(
            lambda surface, features, gender: LexiconEntry(surface, surface, features, gender),
            st.sampled_from(["a", "ab", "ba", "abc", "c"]), st.sampled_from(["N", "A"]),
            st.sampled_from([MASCULINE, FEMININE, NEUTER, NEUTRAL_NEW])), max_size=8),
        patterns=st.lists(st.builds(
            PlaceholderPattern, st.sampled_from(PATTERN_KINDS), st.sampled_from(["a", "b", "ab", "c"]),
            st.sampled_from([MASCULINE, FEMININE, NEUTRAL_NEW])),
            max_size=4, unique_by=lambda pattern: (pattern.kind, pattern.text)),
        tokens=st.lists(st.text("abc", max_size=4), max_size=8),
    )
    def test_matches_the_union_over_entries_then_patterns(self, entries, patterns, tokens):
        for lexicon in (GenderLexicon(entries, patterns),
                        register_placeholder_patterns(GenderLexicon(entries), patterns)):
            for token in [*tokens, *(e.surface for e in entries)]:
                assert analyze_gender(lexicon, token) == reference_analyze_gender(lexicon, token)


class TestBuildPairs:
    def test_medico_medica(self):
        pairs = build_reinflection_pairs(toy_lexicon())
        assert ("médico", "médica", FEMININE) in pairs.pairs
        assert ("médica", "médico", MASCULINE) in pairs.pairs

    def test_single_gender_lemma_yields_nothing(self):
        lexicon = GenderLexicon([entry("mesa", gender=FEMININE)])
        assert len(build_reinflection_pairs(lexicon)) == 0

    def test_three_genders_make_six_pairs(self):
        lexicon = GenderLexicon(
            [
                LexiconEntry("worko", "work", "NOUN.sg", MASCULINE),
                LexiconEntry("worka", "work", "NOUN.sg", FEMININE),
                LexiconEntry("workx", "work", "NOUN.sg", NEUTRAL_NEW),
            ]
        )
        assert len(build_reinflection_pairs(lexicon)) == 6

    def test_features_must_match_exactly(self):
        lexicon = GenderLexicon(
            [
                LexiconEntry("médico", "médico", "NOUN.sg", MASCULINE),
                LexiconEntry("médicas", "médico", "NOUN.pl", FEMININE),
            ]
        )
        assert len(build_reinflection_pairs(lexicon)) == 0

    def test_target_gender_is_target_entrys(self):
        pairs = build_reinflection_pairs(toy_lexicon())
        for source, target, gender in pairs:
            assert gender in analyze_gender(toy_lexicon(), target)


class TestPatterns:
    def test_exact_token_pattern(self):
        lexicon = register_placeholder_patterns(
            toy_lexicon(), [PlaceholderPattern("exact-token", "DEFNOM", NEUTRAL_NEW)]
        )
        assert analyze_gender(lexicon, "DEFNOM") == {NEUTRAL_NEW}

    def test_empty_pattern_list_is_identity(self):
        lexicon = toy_lexicon()
        assert register_placeholder_patterns(lexicon, []) == lexicon

    def test_entry_beats_pattern(self):
        lexicon = register_placeholder_patterns(
            toy_lexicon(), [PlaceholderPattern("exact-token", "el", FEMININE)]
        )
        assert analyze_gender(lexicon, "el") == {MASCULINE}

    def test_first_match_wins(self):
        lexicon = register_placeholder_patterns(
            GenderLexicon(),
            [
                PlaceholderPattern("prefix", "DEF", NEUTRAL_NEW),
                PlaceholderPattern("prefix", "DEFN", MASCULINE),
            ],
        )
        assert analyze_gender(lexicon, "DEFNOM") == {NEUTRAL_NEW}

    def test_duplicate_pattern_rejected(self):
        with pytest.raises(PatternError):
            register_placeholder_patterns(
                GenderLexicon(),
                [
                    PlaceholderPattern("suffix", "NEND", NEUTRAL_NEW),
                    PlaceholderPattern("suffix", "NEND", MASCULINE),
                ],
            )

    def test_bad_kind_rejected(self):
        with pytest.raises(PatternError):
            PlaceholderPattern("regex", "x.*", MASCULINE)

    def test_empty_text_rejected(self):
        with pytest.raises(PatternError):
            PlaceholderPattern("prefix", "", MASCULINE)


class TestPairSet:
    def test_reflexive_pair_rejected(self):
        with pytest.raises(PairSetError):
            ReinflectionPairSet([("el", "el", MASCULINE)])

    def test_missing_reverse_rejected(self):
        with pytest.raises(PairSetError):
            ReinflectionPairSet([("el", "la", FEMININE)])

    def test_rejected_pair_set_has_a_repr(self):
        # a traceback through the rejected constructor shows the object
        with pytest.raises(PairSetError) as excinfo:
            ReinflectionPairSet([("un", "una", FEMININE)])
        rejected = excinfo.traceback[-1].frame.f_locals["self"]
        assert repr(rejected) == "ReinflectionPairSet(1 pairs)"

    def test_error_names_the_same_pair_under_any_hash_seed(self):
        # the frozenset's order moves with PYTHONHASHSEED, so each seed is a
        # child process; the first bad pair in sorted order is named
        script = ("from genderbeam.morpho import FEMININE, ReinflectionPairSet\n"
                  "try:\n"
                  "    ReinflectionPairSet([('x', 'y', FEMININE), ('un', 'una', FEMININE), ('el', 'la', FEMININE)])\n"
                  "except Exception as exc:\n"
                  "    print(exc)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        messages = {
            subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}).stdout
            for seed in range(1, 6)
        }
        assert messages == {"pair 'el' -> 'la' missing its reverse\n"}

    def test_substitutions_sorted(self):
        pairs = ReinflectionPairSet(
            [
                ("a", "zz", FEMININE),
                ("zz", "a", MASCULINE),
                ("a", "bb", NEUTER),
                ("bb", "a", MASCULINE),
            ]
        )
        assert pairs.substitutions_for("a") == (("bb", NEUTER), ("zz", FEMININE))
        assert pairs.substitutions_for("missing") == ()


# values that are not tokens: a split word never equals them
NOT_TOKENS = ["el medico", "", " el", "el\t", "el\u2003medico", "el\x1cmedico"]


def _not_token(text):
    return f"token {text!r} is empty or holds whitespace"


class TestTokenContract:
    """Lexicon surfaces, pair forms and pattern text are tokens: nonempty,
    with no str.split whitespace. Text with whitespace can never match a
    token, so a row holding it was dead or, through the API, wrote a token
    that reads back as two."""

    @pytest.mark.parametrize("surface", NOT_TOKENS)
    def test_lexicon_entry_surface(self, surface):
        with pytest.raises(ValueError) as info:
            LexiconEntry(surface, "medico", "NOUN.sg", MASCULINE)
        assert str(info.value) == f"lexicon entry surface must be a token: {_not_token(surface)}"

    def test_lexicon_file_names_the_line_instead_of_building_dead_pairs(self, tmp_path):
        # build_reinflection_pairs returned ('el medico', 'la medica', feminine)
        path = tmp_path / "lex.tsv"
        path.write_text("el\tel\tART.sg\tmasculine\nel medico\tmedico\tNOUN.sg\tmasculine\n"
                        "la medica\tmedico\tNOUN.sg\tfeminine\n", encoding="utf-8")
        with pytest.raises(LexiconError) as info:
            load_lexicon(path)
        assert str(info.value) == (f"{path}:2: lexicon entry surface must be a token: "
                                   f"{_not_token('el medico')}")

    @pytest.mark.parametrize("form", NOT_TOKENS)
    @pytest.mark.parametrize("side", ["source", "target"])
    def test_pair_forms(self, form, side):
        a, b = (form, "la") if side == "source" else ("la", form)
        with pytest.raises(PairSetError) as info:
            ReinflectionPairSet([(a, b, FEMININE), (b, a, MASCULINE)])
        # either pair may be checked first; both hold the form
        assert str(info.value) in (f"pair {a!r} -> {b!r}: {_not_token(form)}",
                                   f"pair {b!r} -> {a!r}: {_not_token(form)}")

    @pytest.mark.parametrize("form", [form for form in NOT_TOKENS if form.strip() and "\t" not in form])
    def test_pairs_file_names_the_line(self, tmp_path, form):
        path = tmp_path / "pairs.tsv"
        path.write_text(f"el\tla\tfeminine\nla\tel\tmasculine\n{form}\tla\tfeminine\n",
                        encoding="utf-8")
        with pytest.raises(PairSetError) as info:
            read_pairs(path)
        assert str(info.value) == f"{path}:3: pair {form!r} -> 'la': {_not_token(form)}"

    @pytest.mark.parametrize("kind", PATTERN_KINDS)
    @pytest.mark.parametrize("text", NOT_TOKENS)
    def test_pattern_text_of_every_kind(self, kind, text):
        with pytest.raises(PatternError) as info:
            PlaceholderPattern(kind, text, NEUTRAL_NEW)
        assert str(info.value) == f"pattern text must be a token: {_not_token(text)}"

    @pytest.mark.parametrize("kind", PATTERN_KINDS)
    def test_patterns_file_names_the_line(self, tmp_path, kind):
        path = tmp_path / "patterns.tsv"
        path.write_text(f"suffix\tNEND\tneutral-new\n{kind}\tDEF NOM\tneutral-new\n", encoding="utf-8")
        with pytest.raises(PatternError) as info:
            read_patterns(path)
        assert str(info.value) == f"{path}:2: pattern text must be a token: {_not_token('DEF NOM')}"


def random_lexicon(rng):
    stems = ["gat", "perr", "nin", "abuel", "ti", "herman", "secretari", "lobat"]
    suffix_for = {MASCULINE: "o", FEMININE: "a", NEUTER: "e"}
    entries = []
    for stem in rng.sample(stems, rng.randint(2, len(stems))):
        genders = rng.sample(sorted(suffix_for), rng.randint(1, 3))
        for gender in genders:
            entries.append(
                LexiconEntry(stem + suffix_for[gender], stem, "NOUN.sg", gender)
            )
    return GenderLexicon(entries)


class TestPairSetProperties:
    def test_reversal_closure_and_gender_correctness(self):
        rng = random.Random(13)
        for _ in range(50):
            lexicon = random_lexicon(rng)
            pairs = build_reinflection_pairs(lexicon)
            forms = {(a, b) for a, b, _ in pairs.pairs}
            for a, b, gender in pairs:
                assert (b, a) in forms
                assert gender in analyze_gender(lexicon, b)
                assert a != b


class TestRoundTrips:
    def test_lexicon_roundtrip(self, tmp_path):
        rng = random.Random(29)
        for case in range(25):
            lexicon = random_lexicon(rng)
            path = tmp_path / f"lex{case}.tsv"
            write_lexicon(lexicon, path)
            assert load_lexicon(path) == lexicon

    def test_pairs_roundtrip(self, tmp_path):
        rng = random.Random(31)
        for case in range(25):
            pairs = build_reinflection_pairs(random_lexicon(rng))
            path = tmp_path / f"pairs{case}.tsv"
            write_pairs(pairs, path)
            assert read_pairs(path) == pairs

    @given(entries=st.lists(st.builds(LexiconEntry, AWKWARD_TOKENS, AWKWARD_TOKENS | AWKWARD_TEXT,
                                      AWKWARD_TOKENS | AWKWARD_TEXT,
                                      st.sampled_from([MASCULINE, FEMININE, NEUTRAL_NEW])), max_size=3))
    def test_fuzzed_lexicon_round_trip(self, scratch, entries):
        # read back as written, or refused with no file
        deduped = {}
        for item in entries:  # one lemma per (surface, features, gender) key
            deduped.setdefault((item.surface, item.features, item.gender), item)
        lexicon = GenderLexicon(deduped.values())
        path = scratch / "lex.tsv"
        if written(write_lexicon, lexicon, path):
            assert load_lexicon(path, user_labels={"neutral-new"}) == lexicon

    @given(forms=st.lists(st.tuples(AWKWARD_TOKENS, AWKWARD_TOKENS).filter(lambda pair: pair[0] != pair[1]),
                          max_size=3))
    def test_fuzzed_pairs_round_trip(self, scratch, forms):
        pairs = ReinflectionPairSet([(a, b, FEMININE) for a, b in forms] + [(b, a, MASCULINE) for a, b in forms])
        path = scratch / "pairs.tsv"
        if written(write_pairs, pairs, path):
            assert read_pairs(path) == pairs

    @pytest.mark.parametrize("entry, lineno, reason", [
        (LexiconEntry("#la", "el", "ART.sg", FEMININE), 1, "a blank or comment line"),
        (LexiconEntry("la", "e\tl", "ART.sg", FEMININE), 2, "a field holds '\\t' or a line break"),
        (LexiconEntry("la", "el\r", "ART.sg", FEMININE), 2, "a field holds '\\t' or a line break"),
        (LexiconEntry("me\u0301dica", "médico", "NOUN.sg", FEMININE), 2, "text is not NFC"),
    ], ids=["comment-surface", "tab-lemma", "cr-lemma", "decomposed-surface"])
    def test_lexicon_writer_refuses_what_reads_back_otherwise(self, tmp_path, entry, lineno, reason):
        # a '#' surface would read as a comment, a tab as a fifth field, a
        # '\r' as a line end, and a decomposed accent as the composed one
        path = tmp_path / "lex.tsv"
        with pytest.raises(ValueError) as info:
            write_lexicon(GenderLexicon([entry, LexiconEntry("el", "el", "ART.sg", MASCULINE)]), path)
        line = f"{entry.surface}\t{entry.lemma}\t{entry.features}\t{entry.gender}"
        assert str(info.value) == f"{path}:{lineno}: {reason}: {line!r}"
        assert not path.exists()

    def test_pairs_writer_refuses_a_comment_form(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        with pytest.raises(ValueError) as info:
            write_pairs(ReinflectionPairSet([("#el", "la", FEMININE), ("la", "#el", MASCULINE)]), path)
        assert str(info.value) == f"{path}:1: a blank or comment line: '#el\\tla\\tfeminine'"
        assert not path.exists()

    def test_patterns_file_rejects_a_repeated_pattern(self, tmp_path):
        path = tmp_path / "patterns.tsv"
        path.write_text("suffix\tNEND\tneutral-new\nprefix\tMx\tneutral-new\n"
                        "# again\nsuffix\tNEND\tmasculine\n", encoding="utf-8")
        with pytest.raises(PatternError, match=r"^\S*patterns\.tsv:4: duplicate placeholder "
                                               r"pattern suffix 'NEND', first given on line 1$"):
            read_patterns(path)

    def test_patterns_roundtrip(self, tmp_path):
        patterns = (
            PlaceholderPattern("exact-token", "DEFNOM", NEUTRAL_NEW),
            PlaceholderPattern("suffix", "NEND", NEUTRAL_NEW),
            PlaceholderPattern("prefix", "Mx", GenderLabel("neutral-new2")),
        )
        path = tmp_path / "patterns.tsv"
        path.write_text("exact-token\tDEFNOM\tneutral-new\nsuffix\tNEND\tneutral-new\n"
                        "prefix\tMx\tneutral-new2\n", encoding="utf-8")
        assert read_patterns(path) == patterns

    def test_pairs_file_validates_closure(self, tmp_path):
        # lines 2 and 4 both lack their reverse; the first is named
        path = tmp_path / "pairs.tsv"
        path.write_text("el\tla\tfeminine\nun\tuna\tfeminine\nla\tel\tmasculine\n"
                        "uno\tuna\tfeminine\n", encoding="utf-8")
        with pytest.raises(PairSetError, match=r"^\S*pairs\.tsv:2: pair 'un' -> 'una' missing its reverse$"):
            read_pairs(path)

    def test_pairs_file_rejects_a_reflexive_row(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("el\tla\tfeminine\nla\tel\tmasculine\nel\tel\tmasculine\n", encoding="utf-8")
        with pytest.raises(PairSetError, match=r"^\S*pairs\.tsv:3: reflexive pair 'el' -> 'el' not allowed$"):
            read_pairs(path)

    def test_pairs_file_unknown_tag(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("el\tla\tmystery\nla\tel\tmystery\n", encoding="utf-8")
        with pytest.raises(PairSetError, match=r":1:"):
            read_pairs(path)


class TestWriteRows:
    @settings(max_examples=300)
    @given(sep=st.sampled_from(["\t", " ||| "]), data=st.data())
    def test_writes_exactly_the_rows_read_rows_gives_back(self, scratch, sep, data):
        # a row is refused if and only if a plain join would read back otherwise
        count = data.draw(st.integers(1, 3))
        rows = data.draw(st.lists(st.tuples(*[AWKWARD_TEXT] * count), max_size=4))
        plain = scratch / "plain.txt"
        plain.write_text("".join(sep.join(row) + "\n" for row in rows), encoding="utf-8")
        try:
            plain_rows = [row for _, row in read_rows(plain, sep, count, FormatError, lambda *row: row)]
        except FormatError:
            plain_rows = None
        path = scratch / "rows.txt"
        if written(lambda rows, path: write_rows(path, sep, rows), rows, path):
            assert path.read_bytes() == plain.read_bytes()
            assert plain_rows == rows
        else:
            assert plain_rows != rows

    def test_a_lone_surrogate_is_refused_before_the_file_is_opened(self, tmp_path):
        path = tmp_path / "rows.txt"
        with pytest.raises(ValueError) as info:
            write_rows(path, "\t", [("a", "b"), ("\ud800", "c")])
        assert str(info.value) == f"{path}:2: text is not UTF-8-encodable: '\\ud800\\tc'"
        assert not path.exists()
