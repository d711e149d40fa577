"""Interchange format parsing, writing, and round-trip identity."""

import random
import unicodedata

import pytest

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
            "5 ||| a ||| -1.0\n0 ||| b ||| -2.0\n5 ||| c ||| -0.5\n", encoding="utf-8"
        )
        lists = parse_nbest(path)
        assert set(lists) == {0, 5}
        assert [h.tokens for h in lists[5]] == [("c",), ("a",)]

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

    def test_fuzzed_round_trip(self, tmp_path):
        rng = random.Random(7)
        alphabet = ["la", "médica", "el", "niño", "groß", "x1"]
        path = tmp_path / "nbest.txt"
        for _ in range(50):
            lists = {}
            for sent_id in rng.sample(range(100), rng.randrange(1, 6)):
                hyps = [
                    Hypothesis(
                        tuple(rng.choices(alphabet, k=rng.randrange(0, 5))),
                        rng.uniform(-40.0, 0.0),
                    )
                    for _ in range(rng.randrange(1, 5))
                ]
                lists[sent_id] = NBestList(sent_id, hyps)
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
        path.write_text("0\t0\t2-x\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"align\.txt:1.*2-x"):
            parse_alignments(path)

    def test_field_count_checked(self, tmp_path):
        path = tmp_path / "align.txt"
        path.write_text("0\t0-0\n", encoding="utf-8")
        with pytest.raises(FormatError, match="3 tab-separated"):
            parse_alignments(path)

    def test_fuzzed_round_trip(self, tmp_path):
        rng = random.Random(13)
        path = tmp_path / "align.txt"
        for _ in range(50):
            table = {}
            for _ in range(rng.randrange(1, 8)):
                key = (rng.randrange(0, 20), rng.randrange(0, 4))
                links = {
                    (rng.randrange(0, 10), rng.randrange(0, 10))
                    for _ in range(rng.randrange(0, 6))
                }
                table[key] = AlignmentMap(links)
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
        path.write_text("0\tfeminine\t0\t1,x\n", encoding="utf-8")
        with pytest.raises(FormatError, match="token index"):
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
