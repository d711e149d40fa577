"""Interchange format parsing, writing, and round-trip identity."""

import functools
import re
import tracemalloc
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genderbeam.decode import Hypothesis, NBestList, NoisyChannelToy, TableModel
from genderbeam.errors import FormatError, LexiconError, PairSetError, PatternError
from genderbeam.evaluation import TestSentence
from genderbeam.formats import (
    parse_alignments,
    parse_nbest,
    read_entities,
    read_pronoun_table,
    read_sentences,
    read_testset,
    read_word_list,
    write_alignments,
    write_entities,
    write_nbest,
    write_testset,
)
from genderbeam.morpho import (
    FEMININE,
    MASCULINE,
    NEUTER,
    GenderLabel,
    load_lexicon,
    read_pairs,
    read_patterns,
)
from genderbeam.rerank import AlignmentMap, EntitySpec

from helpers import reference_link_pairs


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


NBEST_TOKENS = st.text(st.characters(whitelist_categories=("L", "N", "P", "S")),
                       min_size=1, max_size=5).filter(
    lambda t: "|" not in t and unicodedata.normalize("NFC", t) == t)
NBEST_FILES = st.dictionaries(
    st.integers(0, 10**6),
    st.lists(st.tuples(st.lists(NBEST_TOKENS, max_size=4),
                       st.floats(allow_nan=False, allow_infinity=False)),
             min_size=1, max_size=4),
    max_size=5,
).map(lambda groups: {
    sent_id: NBestList(sent_id, [Hypothesis(tuple(tokens), loglik) for tokens, loglik in hyps])
    for sent_id, hyps in groups.items()
})
# logliks that tie, including 0.0 against -0.0
TIED_LOGLIKS = (0.0, -0.0, -0.5, -1.0, -1e16)
LINK_SETS = st.frozensets(st.tuples(st.integers(0, 300), st.integers(0, 300)), max_size=8)
REQUIRED_GENDERS = NBEST_TOKENS.filter(lambda t: t != "none").map(GenderLabel)
ENTITY_FILES = st.dictionaries(
    st.integers(0, 10**6),
    st.lists(st.builds(EntitySpec, st.none() | st.integers(0, 300), REQUIRED_GENDERS,
                       st.frozensets(st.integers(0, 300), min_size=1, max_size=5)),
             min_size=1, max_size=3),
    max_size=5,
)


@st.composite
def sentence_rows(draw):
    source = tuple(draw(st.lists(NBEST_TOKENS, min_size=1, max_size=6)))
    index = st.integers(0, len(source) - 1)
    return TestSentence(draw(st.integers(0, 10**6)), draw(REQUIRED_GENDERS), source,
                        draw(st.none() | index), draw(st.frozensets(index, min_size=1)))


class TestNBestFiles:
    def test_single_line(self, tmp_path):
        path = tmp_path / "nbest.txt"
        path.write_text("3 ||| la médica ||| -4.5\n", encoding="utf-8")
        lists = parse_nbest(path)
        assert set(lists) == {3}
        assert lists[3].hypotheses == (Hypothesis(("la", "médica"), -4.5),)

    def test_out_of_order_ids_grouped(self, tmp_path):
        path = tmp_path / "nbest.txt"
        path.write_text(
            "5 ||| c ||| -0.5\n0 ||| b ||| -2.0\n5 ||| a ||| -1.0\n", encoding="utf-8"
        )
        lists = parse_nbest(path)
        assert set(lists) == {0, 5}
        assert [h.tokens for h in lists[5]] == [("c",), ("a",)]

    def test_rising_loglik_in_group_names_line(self, tmp_path):
        # sent_id 5's second hypothesis beats its first; re-sorting it would
        # attach alignment rank 0 to "c" instead of "a"
        path = tmp_path / "nbest.txt"
        path.write_text(
            "5 ||| a ||| -1.0\n0 ||| b ||| -2.0\n5 ||| c ||| -0.5\n", encoding="utf-8"
        )
        with pytest.raises(FormatError, match=r"nbest\.txt:3: loglik -0\.5 is above the -1\.0 before it "
                                              r"for sent_id 5; hypotheses must be listed best first$"):
            parse_nbest(path)

    def test_missing_separator_names_line(self, tmp_path):
        path = tmp_path / "nbest.txt"
        path.write_text("0 ||| ok ||| -1.0\n1 | broken | -2.0\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"nbest\.txt:2"):
            parse_nbest(path)

    def test_bad_numbers_rejected(self, tmp_path):
        path = tmp_path / "nbest.txt"
        path.write_text("x ||| a ||| -1.0\n", encoding="utf-8")
        with pytest.raises(FormatError, match="sent_id"):
            parse_nbest(path)
        path.write_text("0 ||| a ||| abc\n", encoding="utf-8")
        with pytest.raises(FormatError, match="loglik"):
            parse_nbest(path)

    @pytest.mark.parametrize("loglik", ["nan", "inf", "-inf", "-Infinity", "NaN"])
    def test_non_finite_loglik_rejected(self, tmp_path, loglik):
        path = tmp_path / "nbest.txt"
        path.write_text(f"0 ||| a b ||| -1.0\n0 ||| c d ||| {loglik}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"nbest\.txt:2: loglik must be finite"):
            parse_nbest(path)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "nbest.txt"
        path.write_text("# comment\n\n0 ||| a ||| -1.0\n", encoding="utf-8")
        assert set(parse_nbest(path)) == {0}

    def test_empty_hypothesis_round_trips(self, tmp_path):
        path = tmp_path / "nbest.txt"
        lists = {0: NBestList(0, [Hypothesis((), -0.25), Hypothesis(("a",), -1.0)])}
        write_nbest(lists.values(), path)
        assert parse_nbest(path) == lists

    def test_equal_tokens_are_one_object(self, tmp_path):
        # across hypotheses and across sent_ids of one call
        path = tmp_path / "nbest.txt"
        path.write_text("0 ||| la médica canta ||| -1.0\n0 ||| el médico canta ||| -2.0\n"
                        "7 ||| el médico canta bien ||| -0.5\n", encoding="utf-8")
        tokens = [token for nbest in parse_nbest(path).values() for hyp in nbest for token in hyp.tokens]
        assert len({id(token) for token in tokens}) == len(set(tokens)) == 6

    @pytest.mark.parametrize("tokens, token", [(("a b",), "a b"), (("a", ""), ""), ((" a",), " a")],
                             ids=["inner-space", "empty", "leading-space"])
    def test_writer_refuses_a_token_that_reads_back_otherwise(self, tmp_path, tokens, token):
        path = tmp_path / "nbest.txt"
        lists = [NBestList(0, [Hypothesis(("ok",), -0.5)]),
                 NBestList(4, [Hypothesis(("ok",), -0.5), Hypothesis(tokens, -1.0)])]
        with pytest.raises(ValueError) as info:
            write_nbest(lists, path)
        assert str(info.value) == f"sent_id 4 rank 1: token {token!r} would not read back as itself"
        assert not path.exists()

    def test_nfc_normalization_on_read(self, tmp_path):
        path = tmp_path / "nbest.txt"
        decomposed = "médica"
        path.write_text(f"0 ||| {decomposed} ||| -1.0\n", encoding="utf-8")
        lists = parse_nbest(path)
        assert lists[0][0].tokens == ("médica",)

    @given(lists=NBEST_FILES)
    def test_fuzzed_round_trip(self, scratch, lists):
        path = scratch / "nbest.txt"
        write_nbest(lists.values(), path)
        assert parse_nbest(path) == lists

    @given(lines=st.lists(st.tuples(st.integers(0, 3), st.sampled_from(TIED_LOGLIKS)), max_size=8))
    def test_accepts_exactly_the_files_listed_best_first(self, scratch, lines):
        path = scratch / "nbest.txt"
        path.write_text("".join(f"{sent_id} ||| t{row} ||| {loglik!r}\n"
                                for row, (sent_id, loglik) in enumerate(lines)), encoding="utf-8")
        groups = {}
        for row, (sent_id, loglik) in enumerate(lines):
            groups.setdefault(sent_id, []).append(Hypothesis((f"t{row}",), loglik))
        if all(a.loglik >= b.loglik for hyps in groups.values() for a, b in zip(hyps, hyps[1:])):
            assert {sent_id: list(nbest) for sent_id, nbest in parse_nbest(path).items()} == groups
        else:
            with pytest.raises(FormatError, match="hypotheses must be listed best first"):
                parse_nbest(path)

    @given(groups=st.dictionaries(st.integers(0, 3), st.lists(st.sampled_from(TIED_LOGLIKS), min_size=1,
                                                               max_size=5), max_size=4))
    def test_written_ties_are_accepted_in_order(self, scratch, groups):
        lists = {sent_id: NBestList(sent_id, [Hypothesis((f"t{i}",), lp) for i, lp in enumerate(lps)])
                 for sent_id, lps in groups.items()}
        path = scratch / "nbest.txt"
        write_nbest(lists.values(), path)
        assert parse_nbest(path) == lists


class TestAlignmentFiles:
    def test_basic_links(self, tmp_path):
        path = tmp_path / "align.txt"
        path.write_text("0\t0\t0-0 1-2\n", encoding="utf-8")
        aligns = parse_alignments(path)
        assert type(aligns[(0, 0)]) is AlignmentMap
        assert aligns[(0, 0)] == {(0, 0), (1, 2)}

    def test_empty_link_field_valid(self, tmp_path):
        path = tmp_path / "align.txt"
        path.write_text("4\t1\t\n", encoding="utf-8")
        aligns = parse_alignments(path)
        assert aligns[(4, 1)] == AlignmentMap()

    def test_duplicates_deduplicated(self, tmp_path):
        path = tmp_path / "align.txt"
        path.write_text("0\t0\t0-0 0-0 1-1\n", encoding="utf-8")
        assert parse_alignments(path)[(0, 0)] == {(0, 0), (1, 1)}

    def test_non_numeric_pair_rejected(self, tmp_path):
        path = tmp_path / "align.txt"
        # '²' passes str.isdigit but not int
        for pair in ("2-x", "2-\u00b2", "\u00b2-2"):
            path.write_text(f"0\t0\t{pair}\n", encoding="utf-8")
            with pytest.raises(FormatError, match=rf"align\.txt:1: malformed alignment pair '{pair}'"):
                parse_alignments(path)

    def test_duplicate_line_names_both_lines(self, tmp_path):
        path = tmp_path / "align.txt"
        path.write_text("0\t0\t0-0\n1\t0\t1-1\n# note\n0\t0\t2-2\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"^\S*align\.txt:4: duplicate alignment for "
                           r"sent_id 0 rank 0, first given on line 1$"):
            parse_alignments(path)

    @pytest.mark.parametrize("text, line, first", [
        ("0\t0\t0-0\n0\t1\t1-1\n1\t0\t0-0\n2\t1\t0-0\n0\t1\t2-2\n", 5, 2),
        ("\n# header\n  \n0\t1\t0-0\n1\t1\t1-1\n0\t1\t0-0\n", 6, 4),
    ], ids=["keys-between", "comments-before"])
    def test_duplicate_names_a_later_first_line(self, tmp_path, text, line, first):
        # the first line is found by reading the file again
        path = tmp_path / "align.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match=rf"^\S*align\.txt:{line}: duplicate alignment for "
                           rf"sent_id 0 rank 1, first given on line {first}$"):
            parse_alignments(path)

    def test_field_count_checked(self, tmp_path):
        path = tmp_path / "align.txt"
        path.write_text("0\t0-0\n", encoding="utf-8")
        with pytest.raises(FormatError, match="3 tab-separated"):
            parse_alignments(path)

    @given(table=st.dictionaries(st.tuples(st.integers(0, 10**6), st.integers(0, 50)),
                                 LINK_SETS.map(AlignmentMap), max_size=8))
    def test_fuzzed_round_trip(self, scratch, table):
        path = scratch / "align.txt"
        write_alignments(table, path)
        assert parse_alignments(path) == table


# six gendered words, so each sentence has 64 variants, as in an n-best list
# of gendered variants of one translation
GENDERED_FORMS = (("elo", "ela"), ("muro", "mura"), ("lernanto", "lernantino"),
                  ("alto", "alta"), ("juno", "juna"), ("lerto", "lerta"))


@pytest.fixture(scope="module")
def variant_files(tmp_path_factory):
    """An n-best file of 64 eleven-token variants for each of 200 sentences,
    and an alignment file with one diagonal line per variant."""
    directory = tmp_path_factory.mktemp("variants")
    links = " ".join(f"{i}-{i}" for i in range(11))
    nbest, align = [], []
    for sent_id in range(200):
        for rank in range(64):
            w = [forms[(rank >> bit) & 1] for bit, forms in enumerate(GENDERED_FORMS)]
            tokens = (f"s{sent_id % 10}", w[0], w[1], "cxar", w[2], "estis", w[3], "sed", w[4], "kaj", w[5])
            nbest.append(f"{sent_id} ||| {' '.join(tokens)} ||| {-1.0 - rank / 64!r}\n")
            align.append(f"{sent_id}\t{rank}\t{links}\n")
    (directory / "variants.nbest").write_text("".join(nbest), encoding="utf-8")
    (directory / "variants.align").write_text("".join(align), encoding="utf-8")
    return directory, len(nbest)


def _traced_peak_per_line(read, path, lines):
    """Peak bytes traced by tracemalloc during read(path), result included, per line."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result
    return (peak - start) / lines


class TestReaderMemory:
    """The rerank command's readers hold each distinct token and link set
    once per call. On CPython 3.11, holding every token of every line on its
    own measured 822 bytes per line for parse_nbest, and a parse_alignments
    that also kept each key's line number 189; holding each once measured
    238 and 120."""

    def test_nbest_reader_peak_per_line(self, variant_files):
        directory, lines = variant_files
        assert _traced_peak_per_line(parse_nbest, directory / "variants.nbest", lines) < 500

    def test_alignment_reader_peak_per_line(self, variant_files):
        directory, lines = variant_files
        assert _traced_peak_per_line(parse_alignments, directory / "variants.align", lines) < 150


class TestEntityFiles:
    def test_read_accumulates_per_sentence(self, tmp_path):
        path = tmp_path / "ents.tsv"
        path.write_text(
            "0\tfeminine\t2\t0,1\n0\tmasculine\t-\t3\n2\tneutral-new\t1\t0\n",
            encoding="utf-8",
        )
        entities = read_entities(path, user_labels={"neutral-new"})
        assert entities[0] == [
            EntitySpec(2, FEMININE, frozenset({0, 1})),
            EntitySpec(None, MASCULINE, frozenset({3})),
        ]
        assert entities[2][0].required_gender == GenderLabel("neutral-new")

    def test_undeclared_tag_names_its_line(self, tmp_path):
        # a misspelt tag would otherwise require a gender no token carries
        path = tmp_path / "ents.tsv"
        path.write_text("0\tfeminine\t2\t0,1\n1\tfemenine\t2\t0\n", encoding="utf-8")
        with pytest.raises(FormatError) as info:
            read_entities(path)
        assert str(info.value) == f"{path}:2: unknown gender tag 'femenine'"
        with pytest.raises(FormatError, match=r"ents\.tsv:2: unknown gender tag 'femenine'$"):
            read_entities(path, user_labels={"neutral-new"})
        assert read_entities(path, user_labels={"femenine"})[1][0].required_gender == GenderLabel("femenine")

    def test_rejects_none_gender(self, tmp_path):
        path = tmp_path / "ents.tsv"
        path.write_text("0\tnone\t0\t1\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"ents\.tsv:1"):
            read_entities(path)

    def test_rejects_bad_index(self, tmp_path):
        path = tmp_path / "ents.tsv"
        for index in ("x", "\u00b2"):
            path.write_text(f"0\tfeminine\t0\t1,{index}\n", encoding="utf-8")
            with pytest.raises(FormatError, match=rf"ents\.tsv:1: malformed token index '{index}'"):
                read_entities(path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ents.tsv"
        entities = {
            0: [EntitySpec(2, FEMININE, frozenset({0, 1})), EntitySpec(None, NEUTER, frozenset({4}))],
            7: [EntitySpec(0, MASCULINE, frozenset({1}))],
        }
        write_entities(entities, path)
        assert read_entities(path) == entities

    @given(entities=ENTITY_FILES)
    def test_fuzzed_round_trip(self, scratch, entities):
        path = scratch / "ents.tsv"
        write_entities(entities, path)
        labels = {spec.required_gender.tag for specs in entities.values() for spec in specs}
        assert read_entities(path, user_labels=labels) == entities


class TestPronounTable:
    def test_read(self, tmp_path):
        path = tmp_path / "pron.tsv"
        path.write_text("she\tneutral-new\nhe\tmasculine\n", encoding="utf-8")
        table = read_pronoun_table(path, user_labels={"neutral-new"})
        assert table["he"] == MASCULINE
        assert table["she"] == GenderLabel("neutral-new")

    def test_undeclared_tag_names_its_line(self, tmp_path):
        path = tmp_path / "pron.tsv"
        path.write_text("he\tmasculine\nshe\tneutral-new\n", encoding="utf-8")
        with pytest.raises(FormatError) as info:
            read_pronoun_table(path)
        assert str(info.value) == f"{path}:2: unknown gender tag 'neutral-new'"

    def test_exact_repeat_collapses(self, tmp_path):
        path = tmp_path / "pron.tsv"
        path.write_text("she\tfeminine\nhe\tmasculine\nshe\tfeminine\n", encoding="utf-8")
        assert read_pronoun_table(path) == {"she": FEMININE, "he": MASCULINE}

    def test_conflicting_repeat_names_both_lines(self, tmp_path):
        path = tmp_path / "pron.tsv"
        path.write_text("she\tfeminine\n# later\nshe\tmasculine\n", encoding="utf-8")
        with pytest.raises(FormatError) as info:
            read_pronoun_table(path)
        assert str(info.value) == (f"{path}:3: gender masculine for pronoun 'she' conflicts "
                                   f"with feminine from line 1")

    def test_case_variant_repeat_collapses(self, tmp_path):
        path = tmp_path / "pron.tsv"
        path.write_text("She\tfeminine\nshe\tfeminine\n", encoding="utf-8")
        assert read_pronoun_table(path) == {"She": FEMININE}

    def test_conflicting_case_variant_names_both_lines(self, tmp_path):
        path = tmp_path / "pron.tsv"
        path.write_text("She\tfeminine\nshe\tmasculine\n", encoding="utf-8")
        with pytest.raises(FormatError) as info:
            read_pronoun_table(path)
        assert str(info.value) == (f"{path}:2: gender masculine for pronoun 'she' conflicts "
                                   f"with feminine from line 1")

    def test_field_count(self, tmp_path):
        path = tmp_path / "pron.tsv"
        path.write_text("she feminine\n", encoding="utf-8")
        with pytest.raises(FormatError, match="2 tab-separated"):
            read_pronoun_table(path)

    @pytest.mark.parametrize("pronoun", ["she ", "", " she", "s he"])
    def test_pronoun_is_a_token(self, tmp_path, pronoun):
        # a split source token never equals such a key, so the pronoun would be dropped
        path = tmp_path / "pron.tsv"
        path.write_text(f"he\tmasculine\n{pronoun}\tfeminine\n", encoding="utf-8")
        with pytest.raises(FormatError) as info:
            read_pronoun_table(path)
        assert str(info.value) == f"{path}:2: pronoun token {pronoun!r} is empty or holds whitespace"


class TestWordList:
    def test_read(self, tmp_path):
        path = tmp_path / "nouns.txt"
        path.write_text("# known nouns\ndoctor\n\nnurse\n", encoding="utf-8")
        assert read_word_list(path) == ("doctor", "nurse")

    def test_word_is_a_token(self, tmp_path):
        # the ends are stripped; a word still holding whitespace matches no source token
        path = tmp_path / "nouns.txt"
        path.write_text("  doctor \t\nworker001 x\n", encoding="utf-8")
        with pytest.raises(FormatError) as info:
            read_word_list(path)
        assert str(info.value) == f"{path}:2: noun token 'worker001 x' is empty or holds whitespace"
        path.write_text("  doctor \t\n", encoding="utf-8")
        assert read_word_list(path) == ("doctor",)

    def test_sentences(self, tmp_path):
        # plain text has no comments; ids are 0-based line numbers
        path = tmp_path / "src.txt"
        path.write_text("# sources\nthe doctor left\n\nshe stayed\n", encoding="utf-8")
        assert list(read_sentences(path)) == [
            ("#", "sources"), ("the", "doctor", "left"), (), ("she", "stayed"),
        ]


class TestTestsetFiles:
    def test_read(self, tmp_path):
        path = tmp_path / "test.tsv"
        path.write_text("0\tfeminine\tthe doctor said she left\t3\t1\n", encoding="utf-8")
        rows = read_testset(path)
        assert rows == [
            TestSentence(0, FEMININE, ("the", "doctor", "said", "she", "left"), 3, frozenset({1}))
        ]

    def test_no_trigger_dash(self, tmp_path):
        path = tmp_path / "test.tsv"
        path.write_text("1\tmasculine\ta b\t-\t0,1\n", encoding="utf-8")
        assert read_testset(path)[0].trigger_index is None

    def test_field_count(self, tmp_path):
        path = tmp_path / "test.tsv"
        path.write_text("0\tfeminine\ta b\t0\n", encoding="utf-8")
        with pytest.raises(FormatError, match="5 tab-separated"):
            read_testset(path)

    def test_rejects_bad_index(self, tmp_path):
        path = tmp_path / "test.tsv"
        for index in ("x", "\u00b2"):
            path.write_text(f"0\tfeminine\ta b\t0\t1,{index}\n", encoding="utf-8")
            with pytest.raises(FormatError, match=rf"test\.tsv:1: malformed token index '{index}'"):
                read_testset(path)

    def test_out_of_range_entity_index(self, tmp_path):
        path = tmp_path / "test.tsv"
        path.write_text("0\tfeminine\ta b\t0\t7\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"test\.tsv:1"):
            read_testset(path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "test.tsv"
        rows = [
            TestSentence(0, FEMININE, ("the", "doctor", "said", "she", "left"), 3, frozenset({1})),
            TestSentence(3, MASCULINE, ("el", "médico"), None, frozenset({0, 1})),
        ]
        write_testset(rows, path)
        assert read_testset(path) == rows

    def test_repeated_sent_id_names_both_lines(self, tmp_path):
        path = tmp_path / "test.tsv"
        path.write_text("4\tfeminine\ta b\t-\t0\n5\tmasculine\ta b\t-\t1\n"
                        "04\tmasculine\tc d\t-\t1\n", encoding="utf-8")
        with pytest.raises(FormatError) as info:
            read_testset(path)
        assert str(info.value) == f"{path}:3: duplicate sent_id 4, first given on line 1"

    @given(rows=st.lists(sentence_rows(), max_size=5, unique_by=lambda row: row.sent_id))
    def test_fuzzed_round_trip(self, scratch, rows):
        # the writer orders rows by id; an id is given once
        path = scratch / "test.tsv"
        write_testset(rows, path)
        labels = {row.gold_gender.tag for row in rows}
        assert read_testset(path, user_labels=labels) == sorted(rows, key=lambda row: row.sent_id)

    def test_undeclared_gold_tag_names_its_line(self, tmp_path):
        # a misspelt gold tag would otherwise be scored as a gender of its own
        path = tmp_path / "test.tsv"
        path.write_text("0\tfeminine\ta b\t-\t0\n1\tfeminin\ta b\t-\t1\n", encoding="utf-8")
        with pytest.raises(FormatError) as info:
            read_testset(path)
        assert str(info.value) == f"{path}:2: unknown gender tag 'feminin'"
        assert read_testset(path, user_labels={"feminin"})[1].gold_gender == GenderLabel("feminin")


# every reader's integer fields take ASCII digits only; int() alone would
# file '1_0' under 10, '\u0661' under 1, and take '-1' and '+2' as numbers
INTEGER_FIELDS = [
    (parse_nbest, "{} ||| a ||| -1.0", "sent_id"),
    (parse_alignments, "{}\t0\t0-0", "sent_id"),
    (parse_alignments, "0\t{}\t0-0", "hyp_rank"),
    (read_entities, "{}\tfeminine\t0\t0", "sent_id"),
    (read_entities, "0\tfeminine\t{}\t0", "trigger_index"),
    (read_testset, "{}\tfeminine\ta b\t0\t0", "sent_id"),
    (read_testset, "0\tfeminine\ta b\t{}\t0", "trigger_index"),
]
INTEGER_FIELD_IDS = [f"{reader.__name__}-{what}" for reader, _, what in INTEGER_FIELDS]


class TestIntegerFields:
    @pytest.mark.parametrize("value", ["1_0", "\u0661", "-1", "+2",
                                       pytest.param("1" * 5000, id="5000-digits")])
    @pytest.mark.parametrize("reader, row, what", INTEGER_FIELDS, ids=INTEGER_FIELD_IDS)
    def test_only_ascii_digits(self, tmp_path, reader, row, what, value):
        path = tmp_path / "data.txt"
        path.write_text(f"{row.format(1)}\n{row.format(value)}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=rf"^\S*data\.txt:2: {what} must be an integer, "
                                              rf"got '{re.escape(value)}'$"):
            reader(path)

    @pytest.mark.parametrize("reader, row, what", INTEGER_FIELDS, ids=INTEGER_FIELD_IDS)
    def test_blanks_around_digits_allowed(self, tmp_path, reader, row, what):
        path = tmp_path / "data.txt"
        path.write_text(f"{row.format(' 1 ')}\n", encoding="utf-8")
        path_plain = tmp_path / "plain.txt"
        path_plain.write_text(f"{row.format(1)}\n", encoding="utf-8")
        assert reader(path) == reader(path_plain)


# an index past int's digit limit in an index list or a link field gets
# that field's own message, not int's
INDEX_FIELDS = [
    (read_entities, "{}\tfeminine\t0\t1,{}", "malformed token index '{}'"),
    (read_testset, "{}\tfeminine\ta b\t0\t{}", "malformed token index '{}'"),
    (parse_alignments, "{}\t0\t1-1 0-{}", "malformed alignment pair '0-{}'"),
]


class TestIndexFields:
    @pytest.mark.parametrize("reader, row, message", INDEX_FIELDS,
                             ids=[reader.__name__ for reader, _, _ in INDEX_FIELDS])
    def test_index_past_digit_limit(self, tmp_path, reader, row, message):
        value = "1" * 5000
        path = tmp_path / "data.txt"
        path.write_text(f"{row.format(0, 1)}\n{row.format(1, value)}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=rf"^\S*data\.txt:2: {message.format(value)}$"):
            reader(path)


SPACES = " \x0b\x0c\u00a0\u2003\x1c"  # ASCII, then Unicode, whitespace
INDEX_TEXT = st.one_of(st.integers(0, 120).map(str),
                       st.text(st.sampled_from("0123456789\u00b2\u0661+_-"), max_size=3))
LINK_TOKEN = st.one_of(st.builds("{}-{}".format, INDEX_TEXT, INDEX_TEXT),
                       st.text(st.sampled_from("0123456789-\u00b2\u0661+_" + SPACES),
                               min_size=1, max_size=7))
# tokens may also touch, as in '1-23-4', which is no pair
LINK_FIELDS = st.builds(
    lambda lead, parts: lead + "".join(token + space for token, space in parts),
    st.text(st.sampled_from(SPACES), max_size=2),
    st.lists(st.tuples(LINK_TOKEN, st.text(st.sampled_from(SPACES), max_size=2)), max_size=6),
)
class TestFileProperties:
    @settings(max_examples=400)
    @given(field=LINK_FIELDS)
    def test_link_rule_matches_per_pair_reference(self, scratch, field):
        path = scratch / "align.txt"
        path.write_text(f"0\t0\t{field}\n", encoding="utf-8")
        try:
            expected = reference_link_pairs(field)
        except ValueError as exc:
            with pytest.raises(FormatError) as info:
                parse_alignments(path)
            assert str(info.value) == f"{path}:1: malformed alignment pair {exc.args[0]!r}"
        else:
            assert parse_alignments(path)[0, 0] == expected

    @given(data=st.data())
    def test_repeated_fields_parse_as_single_lines(self, scratch, data):
        spacing = st.sampled_from([" ", "  ", "\x0b", "\u00a0", " \u2003"])
        pool = data.draw(st.lists(
            st.builds(lambda links, sep, lead, trail:
                      lead + sep.join(f"{s}-{t}" for s, t in links) + trail,
                      st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=5),
                      spacing, st.sampled_from(["", " "]), st.sampled_from(["", " ", "\x0c"])),
            min_size=1, max_size=4))
        fields = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
        keys = data.draw(st.permutations([(i // 3, i % 3) for i in range(len(fields))]))
        path = scratch / "align.txt"
        path.write_text("".join(f"{s}\t{r}\t{f}\n" for (s, r), f in zip(keys, fields)),
                        encoding="utf-8")
        whole = parse_alignments(path)
        assert list(whole) == keys
        first_map = {}
        for (s, r), field in zip(keys, fields):
            path.write_text(f"{s}\t{r}\t{field}\n", encoding="utf-8")
            assert whole[s, r] == parse_alignments(path)[s, r]
            # lines with the same field text share one map
            assert first_map.setdefault(field.strip(), whole[s, r]) is whole[s, r]


def _noisy_lexical(path):
    corpus = path.with_suffix(".corpus")
    corpus.write_text("", encoding="utf-8")
    return NoisyChannelToy.from_files(path, corpus)


def _noisy_corpus(path):
    lexical = path.with_suffix(".lexical")
    lexical.write_text("s\tla\t-1.0\n", encoding="utf-8")
    return NoisyChannelToy.from_files(lexical, path)


MEDICA = "m\u00e9dica"  # NFC; the files below hold it decomposed


def _declaring_medica(reader):
    """reader with MEDICA declared as a user gender label, so that a row
    with no other text field can show the line rule on its gender tag."""
    @functools.wraps(reader)
    def read(path):
        return reader(path, user_labels={MEDICA})
    return read


# reader, its error class, a valid row mentioning MEDICA, a row with a
# wrong field count, a row with a malformed value and the message it gets,
# and where MEDICA lands in what the valid row reads to (None where the row
# alone cannot be read: a pair needs its reverse)
ANNOTATED_READERS = [
    (parse_nbest, FormatError, f"0 ||| la {MEDICA} ||| -1.0", "1 ||| la",
     "1 ||| la ||| x", "loglik must be a number, got 'x'",
     lambda r: r[0][0].tokens[1]),
    (parse_alignments, FormatError, "0\t0\t0-0", "0\t0\t0-0\t1-1",
     "0\t1\t0-0 1-x", "malformed alignment pair '1-x'", None),
    (_declaring_medica(read_entities), FormatError, f"0\t{MEDICA}\t-\t0", "0\tfeminine\t0",
     "0\tnone\t-\t0", "entity requires a concrete gender, not none",
     lambda r: r[0][0].required_gender.tag),
    (read_pronoun_table, FormatError, f"{MEDICA}\tfeminine", "ella\tfeminine\tx",
     "ella\tfem inine", "unknown gender tag 'fem inine'",
     lambda r: next(iter(r))),
    (read_testset, FormatError, f"0\tfeminine\tla {MEDICA}\t-\t1", "1\tfeminine\tla",
     "1\tfeminine\tla\t-\t1", "sentence 1: entity index 1 outside source of length 1",
     lambda r: r[0].source[1]),
    (load_lexicon, LexiconError, f"{MEDICA}\tm\u00e9dico\tNOUN.sg\tfeminine", "la\tel\tART.sg",
     "la\tel\tART.sg\tfem", "unknown gender tag 'fem'",
     lambda r: next(r.all_entries()).surface),
    (read_pairs, PairSetError, f"m\u00e9dico\t{MEDICA}\tfeminine", "la\tel",
     "la\tel\tmasc", "unknown gender tag 'masc'", None),
    (read_patterns, PatternError, f"suffix\t{MEDICA}\tfeminine", "prefix\tel",
     "regex\tel\tmasculine",
     "unknown pattern kind 'regex'; expected one of ('exact-token', 'prefix', 'suffix')",
     lambda r: r[0].text),
    (TableModel.from_file, FormatError, f"s ||| <s> ||| {MEDICA} ||| -1.0", "s ||| <s> ||| la",
     "s ||| <s> ||| la ||| up", "bad logprob 'up'",
     lambda r: next(iter(r.next_scores(("s",), ())))),
    (_noisy_lexical, FormatError, f"s\t{MEDICA}\t-1.0", "s\tla",
     "s\tla\t0.5", "bad logprob '0.5'",
     lambda r: next(iter(r.next_scores(("s",), ())))),
]
READER_IDS = [case[0].__qualname__ for case in ANNOTATED_READERS]
PROBED_READERS = [case for case in ANNOTATED_READERS if case[-1] is not None]


def _annotated_file(tmp_path, rows):
    path = tmp_path / "data.txt"
    text = "\n".join(["  # an indented comment", "", *rows]) + "\n"
    path.write_text(unicodedata.normalize("NFD", text), encoding="utf-8")
    return path


class TestLineRule:
    @pytest.mark.parametrize("reader, error, valid, bad, malformed, error_text, probe", ANNOTATED_READERS,
                             ids=READER_IDS)
    def test_bad_field_count_names_line_4(self, tmp_path, reader, error, valid, bad, malformed,
                                          error_text, probe):
        path = _annotated_file(tmp_path, [valid, bad])
        message = r"data\.txt:4: expected \d ('\|\|\|'|tab)-separated fields, got \d$"
        with pytest.raises(error, match=message) as info:
            reader(path)
        assert type(info.value) is error

    @pytest.mark.parametrize("reader, error, valid, bad, malformed, error_text, probe", ANNOTATED_READERS,
                             ids=READER_IDS)
    def test_malformed_value_names_line_4(self, tmp_path, reader, error, valid, bad, malformed,
                                          error_text, probe):
        with pytest.raises(error) as info:
            reader(_annotated_file(tmp_path, [valid, malformed]))
        assert type(info.value) is error
        assert str(info.value) == f"{tmp_path / 'data.txt'}:4: {error_text}"

    @pytest.mark.parametrize("reader, error, valid, bad, malformed, error_text, probe", PROBED_READERS,
                             ids=[case[0].__qualname__ for case in PROBED_READERS])
    def test_comments_skipped_and_text_nfc(self, tmp_path, reader, error, valid, bad, malformed,
                                           error_text, probe):
        assert probe(reader(_annotated_file(tmp_path, [valid]))) == MEDICA

    def test_word_list_follows_the_rule(self, tmp_path):
        assert read_word_list(_annotated_file(tmp_path, [MEDICA])) == (MEDICA,)


# every reader with the error class its diagnostics carry
ALL_READERS = [(reader, error) for reader, error, *_ in ANNOTATED_READERS] + [
    (lambda path: list(read_sentences(path)), FormatError),
    (read_word_list, FormatError),
]
ALL_READER_IDS = READER_IDS + ["read_sentences", "read_word_list"]


class TestUndecodableBytes:
    @pytest.mark.parametrize("reader, error, valid, bad, malformed, error_text, probe", ANNOTATED_READERS,
                             ids=READER_IDS)
    def test_names_path_and_line(self, tmp_path, reader, error, valid, bad, malformed, error_text, probe):
        path = tmp_path / "data.txt"
        # 0xe9 is Latin-1 'é', a UTF-8 lead byte that the newline does not continue
        row = valid.encode()
        path.write_bytes(b"# m\xc3\xa9dica\n" + row + b"\n" + row + b"\xe9\n")
        with pytest.raises(error) as info:
            reader(path)
        assert type(info.value) is error
        assert str(info.value) == (f"{path}:3: 'utf-8' codec can't decode byte 0xe9 in position "
                                   f"{len(row)}: invalid continuation byte")

    @pytest.mark.parametrize("reader", [read_sentences, read_word_list, _noisy_corpus],
                             ids=lambda r: r.__name__)
    def test_plain_readers_count_lines_as_text_mode_does(self, tmp_path, reader):
        # \r and \r\n end lines too, so the bad byte sits on line 4
        path = tmp_path / "data.txt"
        path.write_bytes(b"la\rel\r\nm\xc3\xa9dica\nm\xe9dica\n")
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:4: 'utf-8' codec can't "
                                              r"decode byte 0xe9 in position 1: invalid continuation byte$"):
            list(reader(path))


# text that looks like rows: separators, digits, signs, comment marks,
# Unicode spaces and superscripts, words the readers know, and bytes that
# are not UTF-8
ROW_PIECES = st.sampled_from([
    b"\t", b" ||| ", b"|", b"0", b"1", b"7", b"12", "²".encode(), b"-", b"#", b",",
    b" ", " ".encode(), " ".encode(), b"\x0b", b"\x1c", b"\xe9", b"\xff", b"\xc3",
    b"feminine", b"masculine", b"none", b"suffix", b"la", b"<s>", b"-1.0", b"0.5", b"nan", b"0-0",
    # whitespace inside what would be one token
    b"el medico", "la\u00a0m".encode(), b"un\x0bo", "fem\u2003inine".encode(),
])
ROW_FILES = st.lists(
    st.builds(lambda sep, fields: sep.join(fields),
              st.sampled_from([b"\t", b" ||| "]),
              st.lists(st.lists(ROW_PIECES, max_size=3).map(b"".join), min_size=1, max_size=5)),
    max_size=4,
).map(lambda lines: b"".join(line + b"\n" for line in lines))


# each reader of gender tags: its error class, a row carrying a tag (the
# n-th of a file), and the labels of what it read, in file order
TAGGED_READERS = [
    (load_lexicon, LexiconError, lambda n, tag: f"la{n}\tel\tART.sg\t{tag}",
     lambda r: [entry.gender for entry in r.all_entries()]),
    (read_pairs, PairSetError, lambda n, tag: f"{('el', 'la')[n]}\t{('la', 'el')[n]}\t{tag}",
     lambda r: [gender for _, _, gender in r]),
    (lambda path, user_labels: read_patterns(path), PatternError, lambda n, tag: f"suffix\tNEND{n}\t{tag}",
     lambda r: [pattern.gender for pattern in r]),
    (read_entities, FormatError, lambda n, tag: f"{n}\t{tag}\t-\t0",
     lambda r: [spec.required_gender for specs in r.values() for spec in specs]),
    (read_pronoun_table, FormatError, lambda n, tag: f"ella{n}\t{tag}", lambda r: list(r.values())),
    (read_testset, FormatError, lambda n, tag: f"{n}\t{tag}\tla\t-\t0",
     lambda r: [sentence.gold_gender for sentence in r]),
]
TAGGED_IDS = ["load_lexicon", "read_pairs", "read_patterns", "read_entities", "read_pronoun_table",
              "read_testset"]


class TestSharedLabels:
    """A reader parses each gender tag to one label per call: a built-in tag
    to its constant, a user tag to a label built at its first row."""

    @pytest.mark.parametrize("reader, error, row, labels", TAGGED_READERS, ids=TAGGED_IDS)
    def test_builtin_tags_give_the_constants(self, tmp_path, reader, error, row, labels):
        path = tmp_path / "tagged.tsv"
        path.write_text(f"{row(0, 'feminine')}\n{row(1, 'feminine')}\n", encoding="utf-8")
        read = labels(reader(path, user_labels=()))
        assert len(read) == 2
        assert all(label is FEMININE for label in read)

    @pytest.mark.parametrize("reader, error, row, labels", TAGGED_READERS, ids=TAGGED_IDS)
    def test_patterns_user_label_is_built_once(self, tmp_path, reader, error, row, labels):
        patterns = tmp_path / "patterns.tsv"
        patterns.write_text("suffix\tNEND\tneutral-new\n", encoding="utf-8")
        user_labels = {str(pattern.gender) for pattern in read_patterns(patterns)}
        path = tmp_path / "tagged.tsv"
        path.write_text(f"{row(0, 'neutral-new')}\n{row(1, 'neutral-new')}\n", encoding="utf-8")
        first, second = labels(reader(path, user_labels=user_labels))
        assert first == GenderLabel("neutral-new")
        assert first is second

    @pytest.mark.parametrize("reader, error, row, labels", TAGGED_READERS, ids=TAGGED_IDS)
    def test_malformed_user_label_fails_at_its_row(self, tmp_path, reader, error, row, labels):
        path = tmp_path / "tagged.tsv"
        path.write_text(f"{row(0, 'feminine')}\n{row(1, 'neutral new')}\n", encoding="utf-8")
        with pytest.raises(error) as info:
            reader(path, user_labels={"neutral new"})
        assert str(info.value) == (f"{path}:2: gender tag must be a nonempty token without whitespace: "
                                   f"'neutral new'")


class TestReaderFuzz:
    @settings(max_examples=150)
    @given(data=ROW_FILES | st.lists(ROW_PIECES, max_size=30).map(b"".join))
    @pytest.mark.parametrize("reader, error", ALL_READERS, ids=ALL_READER_IDS)
    def test_parses_or_names_the_path(self, scratch, reader, error, data):
        path = scratch / "fuzz.txt"
        path.write_bytes(data)
        try:
            reader(path)
        except error as exc:  # any other exception fails the test
            assert str(exc).startswith(f"{path}:")


# how an id field may be written: all but the last two read as 1 or 2
ID_TEXTS = ["1", "01", " 1 ", "2", "١", "1_0"]
ID_ROWS = [
    (parse_nbest, "{} ||| t{} ||| -1.0"),
    (parse_alignments, "{}\t{}\t0-0"),
    (parse_alignments, "{1}\t{0}\t0-0"),
]


def _merge_lines(reader, results):
    """What parse_nbest or parse_alignments gives for a file whose lines
    gave results one at a time."""
    if reader is parse_alignments:
        return {key: alignment for result in results for key, alignment in result.items()}
    groups = {}
    for result in results:
        for sent_id, nbest in result.items():
            groups.setdefault(sent_id, []).extend(nbest)
    return {sent_id: NBestList(sent_id, hyps) for sent_id, hyps in groups.items()}


class TestIdFieldsParsedOnce:
    @given(data=st.data())
    @pytest.mark.parametrize("reader, row", ID_ROWS, ids=["nbest-sent_id", "align-sent_id", "align-hyp_rank"])
    def test_repeated_ids_parse_as_single_lines(self, scratch, reader, row, data):
        texts = data.draw(st.lists(st.sampled_from(ID_TEXTS), min_size=1, max_size=40))
        lines = [row.format(text, lineno) for lineno, text in enumerate(texts, 1)]
        single = scratch / "line.txt"
        results, first_error = [], None
        for lineno, line in enumerate(lines, 1):
            single.write_text(line + "\n", encoding="utf-8")
            try:
                results.append(reader(single))
            except FormatError as exc:
                first_error = f"{lineno}:{str(exc).removeprefix(f'{single}:1:')}"
                break
        path = scratch / "ids.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        if first_error is not None:
            with pytest.raises(FormatError) as info:
                reader(path)
            assert str(info.value) == f"{path}:{first_error}"
            return
        whole = reader(path)
        expected = _merge_lines(reader, results)
        assert whole == expected
        assert list(whole) == list(expected)
