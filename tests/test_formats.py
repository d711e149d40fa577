"""Interchange format parsing, writing, and round-trip identity."""

import re
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
        assert aligns[(0, 0)].links == {(0, 0), (1, 2)}

    def test_empty_link_field_valid(self, tmp_path):
        path = tmp_path / "align.txt"
        path.write_text("4\t1\t\n", encoding="utf-8")
        aligns = parse_alignments(path)
        assert aligns[(4, 1)] == AlignmentMap()

    def test_duplicates_deduplicated(self, tmp_path):
        path = tmp_path / "align.txt"
        path.write_text("0\t0\t0-0 0-0 1-1\n", encoding="utf-8")
        assert parse_alignments(path)[(0, 0)].links == {(0, 0), (1, 1)}

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


class TestEntityFiles:
    def test_read_accumulates_per_sentence(self, tmp_path):
        path = tmp_path / "ents.tsv"
        path.write_text(
            "0\tfeminine\t2\t0,1\n0\tmasculine\t-\t3\n2\tneutral-new\t1\t0\n",
            encoding="utf-8",
        )
        entities = read_entities(path)
        assert entities[0] == [
            EntitySpec(2, FEMININE, frozenset({0, 1})),
            EntitySpec(None, MASCULINE, frozenset({3})),
        ]
        assert entities[2][0].required_gender == GenderLabel("neutral-new")

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


class TestPronounTable:
    def test_read(self, tmp_path):
        path = tmp_path / "pron.tsv"
        path.write_text("she\tfeminine\nhe\tmasculine\nshe\tneutral-new\n", encoding="utf-8")
        table = read_pronoun_table(path)
        assert table["he"] == MASCULINE
        assert table["she"] == GenderLabel("neutral-new")

    def test_field_count(self, tmp_path):
        path = tmp_path / "pron.tsv"
        path.write_text("she feminine\n", encoding="utf-8")
        with pytest.raises(FormatError, match="2 tab-separated"):
            read_pronoun_table(path)


class TestWordList:
    def test_read(self, tmp_path):
        path = tmp_path / "nouns.txt"
        path.write_text("# known nouns\ndoctor\n\nnurse\n", encoding="utf-8")
        assert read_word_list(path) == ("doctor", "nurse")

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
            assert parse_alignments(path)[0, 0].links == expected

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


MEDICA = "m\u00e9dica"  # NFC; the files below hold it decomposed

# reader, its error class, a valid row mentioning MEDICA, a row with a
# wrong field count, and where MEDICA lands in what the valid row reads to
# (None where the row alone cannot be read: a pair needs its reverse)
ANNOTATED_READERS = [
    (parse_nbest, FormatError, f"0 ||| la {MEDICA} ||| -1.0", "1 ||| la",
     lambda r: r[0][0].tokens[1]),
    (parse_alignments, FormatError, "0\t0\t0-0", "0\t0\t0-0\t1-1", None),
    (read_entities, FormatError, f"0\t{MEDICA}\t-\t0", "0\tfeminine\t0",
     lambda r: r[0][0].required_gender.tag),
    (read_pronoun_table, FormatError, f"{MEDICA}\tfeminine", "ella\tfeminine\tx",
     lambda r: next(iter(r))),
    (read_testset, FormatError, f"0\tfeminine\tla {MEDICA}\t-\t1", "1\tfeminine\tla",
     lambda r: r[0].source[1]),
    (load_lexicon, LexiconError, f"{MEDICA}\tm\u00e9dico\tNOUN.sg\tfeminine", "la\tel\tART.sg",
     lambda r: next(r.all_entries()).surface),
    (read_pairs, PairSetError, f"m\u00e9dico\t{MEDICA}\tfeminine", "la\tel", None),
    (read_patterns, PatternError, f"suffix\t{MEDICA}\tfeminine", "prefix\tel",
     lambda r: r[0].text),
    (TableModel.from_file, FormatError, f"s ||| <s> ||| {MEDICA} ||| -1.0", "s ||| <s> ||| la",
     lambda r: next(iter(r.next_scores(("s",), ())))),
    (_noisy_lexical, FormatError, f"s\t{MEDICA}\t-1.0", "s\tla",
     lambda r: next(iter(r.next_scores(("s",), ())))),
]
PROBED_READERS = [case for case in ANNOTATED_READERS if case[-1] is not None]


def _annotated_file(tmp_path, rows):
    path = tmp_path / "data.txt"
    text = "\n".join(["  # an indented comment", "", *rows]) + "\n"
    path.write_text(unicodedata.normalize("NFD", text), encoding="utf-8")
    return path


class TestLineRule:
    @pytest.mark.parametrize("reader, error, valid, bad, probe", ANNOTATED_READERS,
                             ids=[case[0].__qualname__ for case in ANNOTATED_READERS])
    def test_bad_field_count_names_line_4(self, tmp_path, reader, error, valid, bad, probe):
        path = _annotated_file(tmp_path, [valid, bad])
        message = r"data\.txt:4: expected \d ('\|\|\|'|tab)-separated fields, got \d$"
        with pytest.raises(error, match=message) as info:
            reader(path)
        assert type(info.value) is error

    @pytest.mark.parametrize("reader, error, valid, bad, probe", PROBED_READERS,
                             ids=[case[0].__qualname__ for case in PROBED_READERS])
    def test_comments_skipped_and_text_nfc(self, tmp_path, reader, error, valid, bad, probe):
        assert probe(reader(_annotated_file(tmp_path, [valid]))) == MEDICA

    def test_word_list_follows_the_rule(self, tmp_path):
        assert read_word_list(_annotated_file(tmp_path, [MEDICA])) == (MEDICA,)
