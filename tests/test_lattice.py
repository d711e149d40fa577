import random

import pytest

from helpers import MEDIC_TABLE, TOY_PAIRS, SubwordTable, deserialize_lattice, enumerate_paths

from genderbeam.errors import LatticeError
from genderbeam.lattice import HypothesisLattice, LatticeArc, compose_lattice, serialize_lattice
from genderbeam.morpho import (
    FEMININE,
    MASCULINE,
    NONE,
    GenderLexicon,
    LexiconEntry,
    ReinflectionPairSet,
)
from genderbeam.segment import WholeWordSegmenter


def arc(word, tokens=None, gender=NONE):
    return LatticeArc(word, tokens or (word,), gender)


class TestArcValidation:
    def test_must_advance_one_state(self):
        # only the text form numbers states, so only its reader can break this
        with pytest.raises(LatticeError, match="line 1: arc must advance one state: 0 -> 2"):
            deserialize_lattice("0\t2\tel\tel\tnone\nFINAL\t2\n")

    def test_tokens_nonempty(self):
        with pytest.raises(LatticeError):
            LatticeArc("el", ())

    def test_no_empty_token(self):
        with pytest.raises(LatticeError):
            LatticeArc("el", ("el", ""))

    @pytest.mark.parametrize("word, tokens, bad", [
        ("a b", ("a",), "a b"), ("", ("a",), ""), ("a", ("a b",), "a b"), ("a", ("a", "\t"), "\t"),
    ])
    def test_word_and_model_tokens_are_tokens(self, word, tokens, bad):
        # such an arc would decode to a hypothesis that write_nbest refuses
        with pytest.raises(LatticeError) as info:
            LatticeArc(word, tokens)
        assert str(info.value) == f"arc {word!r}: token {bad!r} is empty or holds whitespace"

    @pytest.mark.parametrize("boundary", ["<s>", "</s>"])
    def test_model_token_is_no_sentence_boundary(self, boundary):
        # the scorer would read it as the sentence start or end
        with pytest.raises(LatticeError) as info:
            LatticeArc("a", ("a@@", boundary))
        assert str(info.value) == f"arc 'a': model tokens ('a@@', {boundary!r}) hold a sentence boundary"
        with pytest.raises(LatticeError, match="hold a sentence boundary"):
            compose_lattice(ReinflectionPairSet([]), ("a", boundary, "b"))


class TestLatticeStructure:
    def test_duplicate_word_at_position_rejected(self):
        with pytest.raises(LatticeError, match="duplicate arc for word 'el' at position 1"):
            HypothesisLattice([[arc("un")], [arc("el"), arc("la"), arc("el")]])

    def test_empty_position_rejected(self):
        with pytest.raises(LatticeError, match=r"no outgoing arcs at positions \[1\]"):
            HypothesisLattice([[arc("el")], [], [arc("rojo")]])

    def test_empty_rejected(self):
        with pytest.raises(LatticeError, match="lattice needs at least one arc"):
            HypothesisLattice([])

    def test_path_count_is_arc_product(self):
        lattice = HypothesisLattice(
            [[arc("a"), arc("b")], [arc("c"), arc("d"), arc("e")], [arc("f"), arc("g")]]
        )
        assert lattice.path_count == 2 * 3 * 2
        assert len(enumerate_paths(lattice)) == 12
        words = [w for w in "abcdefghijklmnopqrst"]
        pairs = ReinflectionPairSet(
            [(w, w.upper(), FEMININE) for w in words] + [(w.upper(), w, MASCULINE) for w in words]
        )
        assert compose_lattice(pairs, words).path_count == 2**20


class TestCompose:
    def test_toy_two_by_two(self):
        lattice = compose_lattice(TOY_PAIRS, ["el", "médico"])
        assert lattice.num_positions == 2
        assert [len(lattice.arcs_at(i)) for i in range(2)] == [2, 2]
        words = {path for path, _ in enumerate_paths(lattice)}
        assert words == {
            ("el", "médico"),
            ("el", "médica"),
            ("la", "médico"),
            ("la", "médica"),
        }

    def test_empty_pairs_identity_lattice(self):
        lattice = compose_lattice(ReinflectionPairSet([]), ["sin", "cambios", "aquí"])
        paths = enumerate_paths(lattice)
        assert paths == [(("sin", "cambios", "aquí"), (NONE, NONE, NONE))]

    def test_unpaired_word_keeps_single_arc(self):
        lattice = compose_lattice(TOY_PAIRS, ["el", "médico", "rojo"])
        assert lattice.path_count == 4

    def test_empty_hypothesis_rejected(self):
        with pytest.raises(LatticeError):
            compose_lattice(TOY_PAIRS, [])

    def test_identity_arc_gender_from_lexicon(self):
        lexicon = GenderLexicon(
            [
                LexiconEntry("el", "el", "ART", MASCULINE),
                LexiconEntry("ambi", "ambi", "NOUN", MASCULINE),
                LexiconEntry("ambi", "ambi", "NOUN", FEMININE),
            ]
        )
        lattice = compose_lattice(ReinflectionPairSet([]), ["el", "ambi", "x"], lexicon=lexicon)
        assert lattice.arcs_at(0)[0].gender == MASCULINE
        # ambiguous and unknown words stay unlabeled
        assert lattice.arcs_at(1)[0].gender == NONE
        assert lattice.arcs_at(2)[0].gender == NONE

    def test_pair_arc_carries_target_gender(self):
        lattice = compose_lattice(TOY_PAIRS, ["el"])
        by_word = {a.word: a for a in lattice.arcs_at(0)}
        assert by_word["la"].gender == FEMININE

    def test_identity_arc_first(self):
        lattice = compose_lattice(TOY_PAIRS, ["médico"])
        assert lattice.arcs_at(0)[0].word == "médico"

    def test_segmenter_expands_tokens(self):
        lattice = compose_lattice(TOY_PAIRS, ["médico"], segmenter=MEDIC_TABLE)
        by_word = {a.word: a.model_tokens for a in lattice.arcs_at(0)}
        assert by_word == {"médico": ("médic", "o"), "médica": ("médic", "a")}

    def test_repeated_target_keeps_first_arc(self):
        # a -> b under two genders: the first pair in sort order gives the arc
        pairs = ReinflectionPairSet([("a", "b", FEMININE), ("a", "b", MASCULINE), ("b", "a", MASCULINE)])
        lattice = compose_lattice(pairs, ("a", "c"))
        assert [(arc.word, arc.gender) for arc in lattice.arcs_at(0)] == [("a", NONE), ("b", FEMININE)]
        assert lattice.path_count == 2


class TestEnumerate:
    def test_identity_path_always_present(self):
        rng = random.Random(7)
        for _ in range(20):
            words = [f"w{i}" for i in range(rng.randint(1, 5))]
            pairs = _random_pairs(rng, words)
            lattice = compose_lattice(pairs, words)
            assert tuple(words) in {path for path, _ in enumerate_paths(lattice)}

    def test_first_path_is_identity(self):
        lattice = compose_lattice(TOY_PAIRS, ["el", "médico"])
        assert enumerate_paths(lattice)[0][0] == ("el", "médico")

    def test_last_position_varies_fastest(self):
        lattice = compose_lattice(TOY_PAIRS, ["el", "médico"])
        words = [path for path, _ in enumerate_paths(lattice)]
        assert words[0] == ("el", "médico")
        assert words[1] == ("el", "médica")

    def test_monotone_under_pair_addition(self):
        base = compose_lattice(TOY_PAIRS, ["el", "médico"])
        richer_pairs = ReinflectionPairSet(
            set(TOY_PAIRS.pairs) | {("el", "le", NONE), ("le", "el", MASCULINE)}
        )
        richer = compose_lattice(richer_pairs, ["el", "médico"])
        base_paths = {path for path, _ in enumerate_paths(base)}
        richer_paths = {path for path, _ in enumerate_paths(richer)}
        assert base_paths <= richer_paths


def _random_pairs(rng, words):
    pairs = set()
    for word in words:
        for k in range(rng.randint(0, 2)):
            variant = f"{word}.v{k}"
            pairs.add((word, variant, FEMININE))
            pairs.add((variant, word, MASCULINE))
    return ReinflectionPairSet(pairs)


class TestSerialization:
    def test_toy_round_trip(self):
        lattice = compose_lattice(TOY_PAIRS, ["el", "médico"])
        text = serialize_lattice(lattice)
        assert deserialize_lattice(text) == lattice
        assert text.endswith("FINAL\t2\n")

    def test_multi_token_arc_round_trip(self):
        lattice = compose_lattice(TOY_PAIRS, ["el", "médico"], segmenter=MEDIC_TABLE)
        text = serialize_lattice(lattice)
        assert "médic+a" in text
        assert deserialize_lattice(text) == lattice

    def test_text_round_trip(self):
        lattice = compose_lattice(TOY_PAIRS, ["el", "médico"])
        text = serialize_lattice(lattice)
        assert serialize_lattice(deserialize_lattice(text)) == text

    def test_random_round_trips(self):
        rng = random.Random(17)
        for _ in range(30):
            words = [f"w{i}" for i in range(rng.randint(1, 4))]
            lattice = compose_lattice(_random_pairs(rng, words), words)
            assert deserialize_lattice(serialize_lattice(lattice)) == lattice

    def test_empty_text_rejected(self):
        with pytest.raises(LatticeError):
            deserialize_lattice("")

    def test_missing_final_rejected(self):
        with pytest.raises(LatticeError, match="FINAL"):
            deserialize_lattice("0\t1\tel\tel\tnone\n")

    def test_malformed_line_number_reported(self):
        text = "0\t1\tel\tel\tnone\nbogus line\nFINAL\t1\n"
        with pytest.raises(LatticeError, match="line 2"):
            deserialize_lattice(text)
        # '²' passes str.isdigit but not int
        for final in ("x", "\u00b2"):
            with pytest.raises(LatticeError, match="line 2: malformed FINAL line"):
                deserialize_lattice(f"0\t1\tel\tel\tnone\nFINAL\t{final}\n")

    def test_ungrouped_arcs_rejected(self):
        text = "1\t2\tb\tb\tnone\n0\t1\ta\ta\tnone\nFINAL\t2\n"
        with pytest.raises(LatticeError, match="grouped"):
            deserialize_lattice(text)

    def test_position_gap_rejected(self):
        text = "0\t1\tel\tel\tnone\n2\t3\trojo\trojo\tnone\nFINAL\t3\n"
        with pytest.raises(LatticeError, match=r"no outgoing arcs at positions \[1\]"):
            deserialize_lattice(text)

    def test_negative_state_rejected(self):
        with pytest.raises(LatticeError, match="line 1: negative arc state -1"):
            deserialize_lattice("-1\t0\tel\tel\tnone\nFINAL\t0\n")

    def test_final_mismatch_rejected(self):
        text = "0\t1\tel\tel\tnone\nFINAL\t3\n"
        with pytest.raises(LatticeError, match="FINAL"):
            deserialize_lattice(text)


class TestSegmenters:
    def test_whole_word_identity(self):
        seg = WholeWordSegmenter()
        assert seg.segment("médica") == ("médica",)
        assert seg.words(["la", "médica"]) == ("la", "médica")

    def test_subword_round_trip(self):
        tokens = [t for w in ("la", "médica") for t in MEDIC_TABLE.segment(w)]
        assert tokens == ["la", "médic", "a"]
        assert MEDIC_TABLE.words(tokens) == ("la", "médica")

    def test_longest_match_wins(self):
        table = SubwordTable({"ab": ("a", "b"), "abc": ("a", "b", "c")})
        assert table.words(["a", "b", "c"]) == ("abc",)

    def test_tie_breaks_to_smallest_word(self):
        table = SubwordTable({"zz": ("x", "y"), "aa": ("x", "y")})
        assert table.words(["x", "y"]) == ("aa",)

    def test_invalid_table_rejected(self):
        with pytest.raises(ValueError):
            SubwordTable({"w": ()})
