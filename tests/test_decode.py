import gc
import itertools
import math
import random
import re
import tracemalloc
import unicodedata
import weakref
import zlib
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    MEDIC_TABLE,
    TOY_PAIRS,
    HashScorer,
    LastTokenTable,
    bigram_fields,
    oracle_nbest,
    random_lattice,
    realizations,
    reference_beam_search,
    reference_constrained_beam_search,
    reference_two_pass,
    rescore,
)

from genderbeam.decode import (
    BOS,
    EOS,
    BeamConfig,
    Hypothesis,
    NBestList,
    NoisyChannelToy,
    ScoringModel,
    StepMap,
    TableModel,
    beam_search,
    constrained_beam_search,
    two_pass_decode,
)
from genderbeam.errors import DecodeError, FormatError
from genderbeam.lattice import HypothesisLattice, LatticeArc, compose_lattice
from genderbeam.morpho import MASCULINE, ReinflectionPairSet

SRC = ("the", "doctor")
SRC_KEY = "the doctor"
# values that are not tokens: each would be written as other tokens, or none
NOT_TOKENS = ["a b", "", " a", "a\t", "a\u00a0b", "a\x1cb"]


def _not_token(token):
    return f"token {token!r} is empty or holds whitespace"


def masc_biased_table():
    """Every variant continuation listed; masculine forms score higher."""
    entries = {
        (SRC_KEY, BOS): {"el": -1.0, "la": -2.0},
        (SRC_KEY, "el"): {"médico": -1.0, "médica": -2.0},
        (SRC_KEY, "la"): {"médico": -1.0, "médica": -2.0},
    }
    for first in ("el", "la"):
        for second in ("médico", "médica"):
            entries[(SRC_KEY, f"{first} {second}")] = {EOS: -0.5}
    return TableModel(entries)


class TestBeamConfig:
    def test_nbest_defaults_to_width(self):
        assert BeamConfig(4).nbest == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beam_width": 0},
            {"beam_width": 2, "nbest": 3},
            {"beam_width": 2, "nbest": 0},
            {"beam_width": 2, "max_len": 0},
        ],
    )
    def test_rejects_bad_configs(self, kwargs):
        with pytest.raises(ValueError):
            BeamConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"beam_width": 2.5}, "beam_width"),
            ({"beam_width": 4, "nbest": 2.0}, "nbest"),
            ({"beam_width": 4, "max_len": "16"}, "max_len"),
        ],
    )
    def test_rejects_a_field_that_is_no_integer(self, kwargs, name):
        # a float width would reach the search and fail there as a slice index
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            BeamConfig(**kwargs)


class TestNBestList:
    def test_sorts_non_increasing(self):
        nbest = NBestList(0, [Hypothesis(("b",), -2.0), Hypothesis(("a",), -1.0)])
        assert [h.loglik for h in nbest] == [-1.0, -2.0]

    def test_stable_on_ties(self):
        nbest = NBestList(0, [Hypothesis(("z",), -1.0), Hypothesis(("a",), -1.0)])
        assert [h.tokens for h in nbest] == [("z",), ("a",)]

    def test_rejects_nan_loglik(self):
        # a NaN compares false both ways, so the sort would leave [-1.0, nan, -0.5]
        hyps = [Hypothesis(("a",), -1.0), Hypothesis(("b",), math.nan), Hypothesis(("c",), -0.5)]
        with pytest.raises(ValueError, match=r"^source 7: a hypothesis has a NaN loglik$"):
            NBestList(7, hyps)


class TestTableModel:
    def test_forced_chain_one_best(self):
        model = TableModel(
            {
                ("x", BOS): {"a": -1.0},
                ("x", "a"): {"b": -0.5},
                ("x", "a b"): {EOS: -0.25},
            }
        )
        result = beam_search(model, ["x"], BeamConfig(4))
        assert result[0].tokens == ("a", "b")
        assert result[0].loglik == pytest.approx(-1.75, abs=1e-12)

    def test_two_candidates_ordered(self):
        model = TableModel(
            {
                ("x", BOS): {"good": -1.0, "bad": -2.0},
                ("x", "good"): {EOS: 0.0},
                ("x", "bad"): {EOS: 0.0},
            }
        )
        result = beam_search(model, ["x"], BeamConfig(2))
        assert [(h.tokens, h.loglik) for h in result] == [
            (("good",), -1.0),
            (("bad",), -2.0),
        ]

    def test_positive_logprob_rejected(self):
        with pytest.raises(ValueError):
            TableModel({("x", BOS): {"a": 0.1}})

    def test_from_file(self, tmp_path):
        path = tmp_path / "model.tsv"
        path.write_text(
            "# toy model\n"
            "x ||| <s> ||| a ||| -1.0\n"
            "x ||| a ||| </s> ||| -0.5\n",
            encoding="utf-8",
        )
        model = TableModel.from_file(path)
        result = beam_search(model, ["x"], BeamConfig(1))
        assert result[0] == Hypothesis(("a",), -1.5)

    def test_from_file_errors_name_lines(self, tmp_path):
        path = tmp_path / "model.tsv"
        path.write_text("x ||| <s> ||| a\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r":1:"):
            TableModel.from_file(path)
        path.write_text("x ||| <s> ||| a ||| up\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r":1:"):
            TableModel.from_file(path)

    def test_bos_is_no_token(self, tmp_path):
        # an entry scoring BOS is refused; EOS stays a token, the closing one
        with pytest.raises(ValueError) as info:
            TableModel({("x", BOS): {"a": -1.0, BOS: -0.5}})
        assert str(info.value) == ("table entry ('x', '<s>', '<s>'): "
                                   "token '<s>' is reserved for the sentence boundaries")
        path = tmp_path / "model.tsv"
        path.write_text("x ||| <s> ||| a ||| -1.0\nx ||| a ||| </s> ||| -0.5\n"
                        "x ||| a ||| <s> ||| -0.5\n", encoding="utf-8")
        with pytest.raises(FormatError) as info:
            TableModel.from_file(path)
        assert str(info.value) == f"{path}:3: token '<s>' is reserved for the sentence boundaries"

    @pytest.mark.parametrize("token", NOT_TOKENS)
    def test_scored_token_must_be_a_token(self, tmp_path, token):
        with pytest.raises(ValueError) as info:
            TableModel({("x", BOS): {"a": -1.0, token: -0.1}})
        assert str(info.value) == f"table entry ('x', '<s>', {token!r}): {_not_token(token)}"
        path = tmp_path / "model.tsv"
        path.write_text(f"x ||| <s> ||| a ||| -1.0\nx ||| <s> ||| {token} ||| -0.1\n", encoding="utf-8")
        with pytest.raises(FormatError) as info:
            TableModel.from_file(path)
        assert str(info.value) == f"{path}:2: {_not_token(token)}"

    def test_spaced_token_no_longer_decodes_as_one(self, tmp_path):
        # beam_search returned the one-token hypothesis ('a b',), which the
        # n-best file reads back as two tokens; keys may still hold spaces
        path = tmp_path / "model.tsv"
        path.write_text("x ||| a b ||| </s> ||| -0.1\n", encoding="utf-8")
        assert TableModel.from_file(path).next_scores(("x",), ("a", "b")) == {EOS: -0.1}
        path.write_text("x ||| <s> ||| a b ||| -0.1\nx ||| a b ||| </s> ||| -0.1\n", encoding="utf-8")
        with pytest.raises(FormatError) as info:
            TableModel.from_file(path)
        assert str(info.value) == f"{path}:1: {_not_token('a b')}"

    @pytest.mark.parametrize("key", ["", " x", "x ", "a  b", "a\tb", "\u00a0"])
    def test_keys_must_be_single_spaced_tokens(self, tmp_path, key):
        # such a key loaded as a row that no source or prefix joins to
        reason = f"key {key!r} is empty or not tokens joined by single spaces"
        for entry in ((key, BOS), ("x", key)):
            with pytest.raises(ValueError) as info:
                TableModel({entry: {"a": -0.2}})
            assert str(info.value) == f"table entry {entry!r}: {reason}"
        path = tmp_path / "model.tsv"
        for row in (f"{key} ||| <s> ||| a ||| -0.2", f"x ||| {key} ||| a ||| -0.2"):
            path.write_text(f"x ||| <s> ||| a ||| -1.0\n{row}\n", encoding="utf-8")
            with pytest.raises(FormatError) as info:
                TableModel.from_file(path)
            assert str(info.value) == f"{path}:2: {reason}"

    def test_prefix_of_bos_is_not_the_empty_prefix(self):
        model = TableModel({("x", BOS): {"a": -1.0}, ("x", "a"): {EOS: -0.5}})
        assert model.next_scores(("x",), ()) == {"a": -1.0}
        assert model.next_scores(("x",), (BOS,)) == {}
        assert model.next_scores(("x",), [BOS]) == {}

    def test_from_file_repeated_entry(self, tmp_path):
        # an exact repeat collapses; another logprob for the same entry is an error
        path = tmp_path / "model.tsv"
        path.write_text("x ||| <s> ||| a ||| -1.0\nx ||| <s> ||| b ||| -2.0\n"
                        "x ||| <s> ||| a ||| -1.0\n", encoding="utf-8")
        assert TableModel.from_file(path).next_scores(("x",), ()) == {"a": -1.0, "b": -2.0}
        path.write_text("x ||| <s> ||| a ||| -0.5\nx ||| a ||| a ||| -0.5\n"
                        "x ||| <s> ||| a ||| -0.1\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"^\S*model\.tsv:3: logprob -0\.1 for \('x', '<s>', 'a'\) "
                                              r"conflicts with -0\.5 from line 1$"):
            TableModel.from_file(path)


class TestBeamSearch:
    def test_greedy_matches_wider_one_best_on_deterministic_table(self):
        model = TableModel(
            {
                ("x", BOS): {"a": -0.1, "b": -3.0},
                ("x", "a"): {"c": -0.1, "d": -3.0},
                ("x", "a c"): {EOS: -0.1},
                ("x", "b"): {EOS: -9.0},
                ("x", "a d"): {EOS: -9.0},
            }
        )
        greedy = beam_search(model, ["x"], BeamConfig(1))
        wide = beam_search(model, ["x"], BeamConfig(4))
        assert greedy[0] == wide[0]

    def test_early_close_keeps_beam_slot(self):
        model = TableModel(
            {
                ("x", BOS): {EOS: -0.1, "a": -3.0},
                ("x", "a"): {EOS: 0.0},
            }
        )
        result = beam_search(model, ["x"], BeamConfig(2))
        assert [(h.tokens, h.loglik) for h in result] == [((), -0.1), (("a",), -3.0)]

    def test_max_len_forces_eos_score(self):
        model = TableModel(
            {
                ("x", BOS): {"a": -1.0},
                ("x", "a"): {"b": -0.5},
            }
        )
        result = beam_search(model, ["x"], BeamConfig(1, max_len=2))
        assert result[0].tokens == ("a", "b")
        # unlisted EOS scores the floor
        assert result[0].loglik == pytest.approx(-1.5 - 20.0)

    def test_dead_beam_raises_with_source_id(self):
        model = TableModel({("x", BOS): {"a": -1.0}, ("x", "a"): {}})
        with pytest.raises(DecodeError, match="source 7"):
            beam_search(model, ["x"], BeamConfig(2), source_id=7)

    def test_empty_source_rejected(self):
        with pytest.raises(DecodeError):
            beam_search(HashScorer(["a"]), [], BeamConfig(1))

    def test_scores_sound_and_sorted_on_fuzzed_runs(self):
        rng = random.Random(41)
        for case in range(15):
            vocab = [f"t{i}" for i in range(rng.randint(2, 4))]
            model = HashScorer(vocab)
            source = tuple(f"s{i}" for i in range(rng.randint(1, 3)))
            cfg = BeamConfig(rng.randint(1, 5), max_len=rng.randint(2, 5))
            result = beam_search(model, source, cfg, source_id=case)
            logliks = [h.loglik for h in result]
            assert logliks == sorted(logliks, reverse=True)
            for hyp in result:
                assert hyp.loglik == pytest.approx(rescore(model, source, hyp.tokens), abs=1e-9)

    def test_deterministic(self):
        model = HashScorer(["a", "b", "c"])
        first = beam_search(model, ("s",), BeamConfig(3, max_len=4))
        second = beam_search(model, ("s",), BeamConfig(3, max_len=4))
        assert first == second


class CountingTable(TableModel):
    """A TableModel that records every prefix it is asked to score."""

    def __init__(self, entries):
        super().__init__(entries)
        self.asked = []

    def next_scores(self, source, prefix):
        self.asked.append(tuple(prefix))
        return super().next_scores(source, prefix)


class TestLengthCap:
    """At max_len EOS is an item's only move, and in the constrained pass
    only the final state has it: an item there asks for its step map once
    more and closes at its EOS score or the floor."""

    def test_first_pass_items_close_at_the_cap(self):
        entries = {
            ("s", BOS): {"a": -0.5, "b": -1.0},
            ("s", "a"): {"a": -0.5, "b": -0.6},
            ("s", "b"): {"a": -0.6},
            ("s", "a a"): {EOS: -2.0, "b": -0.1},  # "b" is no move at the cap
            # ("s", "a b") lists no EOS, so that item closes at the floor
        }
        model, cfg = CountingTable(entries), BeamConfig(2, 2, 2)
        result = beam_search(model, ("s",), cfg)
        assert result == reference_beam_search(TableModel(entries), ("s",), cfg)
        assert [(h.tokens, h.loglik) for h in result] == [(("a", "a"), -3.0), (("a", "b"), -1.1 - 20.0)]
        # one call per expanded item, and one more per item at the cap
        assert model.asked == [(), ("a",), ("b",), ("a", "a"), ("a", "b")]

    def test_constrained_final_state_closes_at_the_cap(self):
        lattice = HypothesisLattice([
            [LatticeArc("a", ("a",))],
            [LatticeArc("b", ("b",)), LatticeArc("cd", ("c", "d"))],
        ])
        entries = {
            ("s", BOS): {"a": -0.5},
            ("s", "a"): {"b": -1.0, "c": -0.1},
            ("s", "a b"): {EOS: -0.2},
        }
        model, cfg = CountingTable(entries), BeamConfig(2, 2, 2)
        result = constrained_beam_search(model, ("s",), lattice, cfg)
        assert result == reference_constrained_beam_search(TableModel(entries), ("s",), lattice, cfg)
        # ("a", "c") is inside the arc "cd" at the cap: dropped, never asked
        assert [(h.tokens, h.loglik) for h in result] == [(("a", "b"), -0.5 + -1.0 + -0.2)]
        assert model.asked == [(), ("a",), ("a", "b")]


# Score grid for the reference property test. Sums tie exactly (0.0 and
# -0.0), tie in the reals but not after rounding (-0.1 + -0.2 against -0.3),
# and tie only after rounding (-1e16 + -0.5 against -1e16 + -1.0). None
# leaves the entry out of the step map, which is how maps go without EOS.
SCORE_GRID = (None, 0.0, -0.0, -0.1, -0.2, -0.3, -0.5, -1.0, -1e16)


def grid_table(vocab, values, salt, max_len, table=TableModel):
    """A table (TableModel or a subclass) over every prefix up to max_len,
    so that forced closes at max_len read a listed EOS score or the floor
    alike. Each entry is a deterministic pick from values."""
    entries = {}
    for length in range(max_len + 1):
        for prefix in itertools.product(vocab, repeat=length):
            prefix_key = " ".join(prefix) if prefix else BOS
            scores = {}
            for token in (*vocab, EOS):
                pick = zlib.crc32(f"{salt}|{prefix_key}|{token}".encode()) % len(values)
                if values[pick] is not None:
                    scores[token] = values[pick]
            entries[("s", prefix_key)] = scores
    return table(entries)


class WeakMap(dict):
    """A step map that can be weakly referenced, to count the live ones."""


def run_or_error(search, model, *args):
    try:
        return [(h.tokens, repr(h.loglik)) for h in search(model, ("s",), *args)]
    except DecodeError as exc:
        return str(exc)


class TestBeamSearchMatchesReference:
    @settings(max_examples=800)
    @given(
        vocab_size=st.integers(1, 3),
        values=st.lists(st.sampled_from(SCORE_GRID), min_size=1, max_size=10),
        salt=st.integers(0, 2**16),
        width=st.integers(1, 6),
        max_len=st.integers(1, 5),
        maps=st.sampled_from(["table", "fresh", "by_last"]),
        data=st.data(),
    )
    def test_equals_full_sort_reference(self, vocab_size, values, salt, width, max_len, maps, data):
        # the table hands back StepMaps, which a search ranks once and
        # checks whole; GridScorer builds a plain map on every call, walked
        # in map order, and with by_last hands one plain map back for the
        # prefixes of one length that end alike
        vocab = ("a", "b", "c")[:vocab_size]
        cfg = BeamConfig(width, data.draw(st.integers(1, width)), max_len)
        if maps == "table":
            model = grid_table(vocab, values, salt, max_len)
        else:
            model = GridScorer(values, salt, vocab, by_last=maps == "by_last")
        assert run_or_error(beam_search, model, cfg) == run_or_error(reference_beam_search, model, cfg)

    @pytest.mark.parametrize("width", [1, 3])
    def test_fresh_maps_are_held_at_most_width(self, width):
        # a scorer that builds a new map on every call never hands one back,
        # so the search must not keep all of them
        refs = []
        most = 0

        class FreshMaps(HashScorer):
            def next_scores(self, source, prefix):
                nonlocal most
                most = max(most, sum(ref() is not None for ref in refs))
                scores = WeakMap(super().next_scores(source, prefix))
                refs.append(weakref.ref(scores))
                return scores

        model = FreshMaps(["a", "b", "c"], include_eos=False)  # every item runs to max_len
        cfg = BeamConfig(width, max_len=8)
        assert beam_search(model, ("s",), cfg) == reference_beam_search(model, ("s",), cfg)
        assert most <= width + 1  # the maps one step walks and the map last asked for

    @pytest.mark.parametrize(
        "entries, max_len, expected",
        [
            # "c" fills the width-1 beam first; "b" and "a" tie it, and "a"
            # must win on tokens, not on arrival order
            ({("s", BOS): {"c": -0.3, "b": -0.3, "a": -0.3}, ("s", "a"): {EOS: 0.0}}, 1,
             Hypothesis(("a",), -0.3)),
            # -1e16 + -0.5 and -1e16 + -1.0 are the same float, so they tie
            ({("s", BOS): {"x": -1e16}, ("s", "x"): {"b": -0.5, "a": -1.0}}, 2,
             Hypothesis(("x", "a"), -1e16 - 20.0)),
        ],
    )
    def test_ties_at_threshold_go_to_tokens(self, entries, max_len, expected):
        model, cfg = TableModel(entries), BeamConfig(1, max_len=max_len)
        result = beam_search(model, ("s",), cfg)
        assert result == reference_beam_search(model, ("s",), cfg)
        assert result[0] == expected


class TestSeededThreshold:
    """Hand-built steps on LastTokenTable's StepMaps: the search ranks a
    map when an item first asks for it, and puts each item's best child's
    score among the step's k-th best scores before it builds any child."""

    def check(self, entries, cfg, expected):
        model = LastTokenTable(entries)
        result = beam_search(model, ("s",), cfg)
        assert result == reference_beam_search(model, ("s",), cfg)
        assert [h.tokens for h in result] == expected

    def test_seeded_child_counts_once(self):
        # step 3: ("x", "z") ranks the map ("z") and seeds -2.5 beside the
        # seed -2.1 of ("x", "y"), whose map ("y") step 2 ranked. Counting
        # the seeded child "p" again would make the threshold -2.1 and prune
        # "q" at -2.3, which is among the true best two
        self.check({
            ("s", BOS): {"x": -1.0, "y": -2.0},
            ("s", "x"): {"z": -0.5, "y": -1.0},
            ("s", "y"): {"p": -0.1, "q": -0.3},
            ("s", "z"): {EOS: -1.0},
            ("s", "p"): {EOS: -0.1},
            ("s", "q"): {EOS: -0.1},
        }, BeamConfig(2, 2, 8), [("x", "y", "p"), ("x", "y", "q")])

    def test_carried_items_and_seeds_fill_the_width(self):
        # step 3: the closed ("x",) is carried and ("x", "y") seeds -3.1, so
        # the threshold is -3.1 before any child is built; the carried items
        # and seeds, one at most per beam item, never exceed the width
        self.check({
            ("s", BOS): {"y": -0.5, "x": -0.6},
            ("s", "y"): {EOS: -2.0, "y": -3.0},
            ("s", "x"): {"y": -0.5, EOS: -0.1},
        }, BeamConfig(2, 2, 8), [("x",), ("x", "y")])

    def test_ranked_empty_map_seeds_nothing(self):
        # step 3: ("w", "z") gets back the empty map ("z") that ("z",)
        # walked at step 2; it has no child, so no seed
        self.check({
            ("s", BOS): {"z": -1.0, "w": -1.5},
            ("s", "w"): {"z": -0.5, EOS: -3.0},
            ("s", "z"): {},
        }, BeamConfig(2, 2, 8), [("w",)])


class TestStepMap:
    def test_a_ranking_outlives_its_search(self):
        # a table's maps live as long as it does, so a later search, at
        # another width too, walks the ranking the first one made
        model = TableModel({("s", BOS): {"b": -0.5, "a": -0.2}, ("s", "a"): {EOS: -0.1},
                            ("s", "b"): {EOS: -0.1}})
        step = model.next_scores(("s",), ())
        assert step.ranked is None
        assert beam_search(model, ("s",), BeamConfig(1, 1, 4))[0] == Hypothesis(("a",), -0.2 + -0.1)
        ranked = step.ranked
        assert ranked == [("a", -0.2), ("b", -0.5)]
        assert [h.tokens for h in beam_search(model, ("s",), BeamConfig(2, 2, 4))] == [("a",), ("b",)]
        assert step.ranked is ranked


# step 2 holds the closed () at -0.5, ("b",) at -0.2 and ("a",) at -1.0:
# at nbest 1 the closed item is the bar, and ("a",) is below it
BAR_ENTRIES = {
    ("s", BOS): {EOS: -0.5, "a": -1.0, "b": -0.2},
    ("s", "b"): {EOS: -0.1, "c": -2.0},
    ("s", "a"): {EOS: -0.1},
}


class TestNBestBound:
    """Once the beam holds nbest finished items, the nbest-th finished score
    is a bar: an item strictly below it is not expanded and a child below
    it is not built, since scores only fall. The top nbest are unchanged."""

    def test_an_item_below_a_finished_one_is_never_asked(self):
        model, cfg = CountingTable(BAR_ENTRIES), BeamConfig(3, 1, 4)
        result = beam_search(model, ("s",), cfg)
        assert result == reference_beam_search(TableModel(BAR_ENTRIES), ("s",), cfg)
        assert result.hypotheses == (Hypothesis(("b",), -0.2 + -0.1),)
        # ("a",) is never asked, and ("b", "c") at -2.2 is never built
        assert model.asked == [(), ("b",)]

    def test_nbest_at_width_asks_every_kept_item(self):
        # the bar needs a wholly finished beam, so nothing is cut
        model, cfg = CountingTable(BAR_ENTRIES), BeamConfig(3, 3, 4)
        result = beam_search(model, ("s",), cfg)
        assert result == reference_beam_search(TableModel(BAR_ENTRIES), ("s",), cfg)
        assert [h.tokens for h in result] == [("b",), (), ("a",)]
        assert model.asked == [(), ("b",), ("a",)]

    def test_constrained_pass_stops_below_the_bar(self):
        # ("x",) closes at step 2 at -1.2; ("y", "z") is inside its arc at
        # -1.5 then, so at nbest 1 its EOS step is never asked
        lattice = HypothesisLattice([[LatticeArc("x", ("x",)), LatticeArc("yz", ("y", "z"))]])
        entries = {("s", BOS): {"x": -1.0, "y": -0.5}, ("s", "x"): {EOS: -0.2},
                   ("s", "y"): {"z": -1.0}, ("s", "y z"): {EOS: -0.1}}
        asked = {}
        for nbest in (1, 2):
            model, cfg = CountingTable(entries), BeamConfig(2, nbest, 4)
            result = constrained_beam_search(model, ("s",), lattice, cfg)
            assert result == reference_constrained_beam_search(TableModel(entries), ("s",), lattice, cfg)
            asked[nbest] = model.asked
        assert asked == {1: [(), ("y",), ("x",)], 2: [(), ("y",), ("x",), ("y", "z")]}

    @settings(max_examples=400)
    @given(
        vocab_size=st.integers(1, 3),
        values=st.lists(st.sampled_from(SCORE_GRID), min_size=1, max_size=10),
        salt=st.integers(0, 2**16),
        width=st.integers(1, 6),
        max_len=st.integers(1, 5),
        data=st.data(),
    )
    def test_asks_a_subset_and_keeps_the_top_nbest(self, vocab_size, values, salt, width, max_len, data):
        vocab = ("a", "b", "c")[:vocab_size]
        nbest = data.draw(st.integers(1, width))
        bounded, full = (grid_table(vocab, values, salt, max_len, CountingTable) for _ in range(2))
        cfg = BeamConfig(width, nbest, max_len)
        expected = run_or_error(reference_beam_search, grid_table(vocab, values, salt, max_len), cfg)
        assert run_or_error(beam_search, bounded, cfg) == expected
        run_or_error(beam_search, full, BeamConfig(width, width, max_len))
        assert set(bounded.asked) <= set(full.asked)


class UncheckedMaps(ScoringModel):
    """Step maps keyed by the prefix's last token, BOS for the empty prefix,
    handed back as given: an in-process scorer's scores are not checked
    before a search reads them."""

    def __init__(self, maps, floor=-20.0):
        self.maps, self.floor = maps, floor

    def next_scores(self, source, prefix):
        return self.maps.get(prefix[-1] if prefix else BOS, {})


def not_logprob(source_id, lp, token, prefix):
    return re.escape(f"source {source_id}: step score {lp!r} for token {token!r} after prefix "
                     f"{prefix!r} is not a finite log probability <= 0")


def bad_first_step(bad):
    # with "b" at -9.0 the best is ("c",) at -0.6
    return {BOS: {"a": -1.0, "b": bad, "c": -0.5, "d": -3.0},
            **{token: {EOS: -0.1} for token in "abcd"}}


ABCD_LATTICE = HypothesisLattice([[LatticeArc(token, (token,)) for token in "abcd"]])
# a NaN is never pruned, and neither is +inf; a positive score that is kept
BAD_SCORES = [math.nan, math.inf, 0.5]


class TestStepScores:
    """A step score that is not a finite log probability <= 0 is refused,
    naming the source, the prefix and the token, instead of being ranked or
    carried into a hypothesis."""

    @pytest.mark.parametrize("bad", BAD_SCORES)
    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_first_pass_refuses_a_kept_score(self, bad, width):
        with pytest.raises(DecodeError, match=not_logprob(5, bad, "b", ())):
            beam_search(UncheckedMaps(bad_first_step(bad)), ("s",), BeamConfig(width, 1, 4), source_id=5)

    @pytest.mark.parametrize("bad", BAD_SCORES)
    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_constrained_pass_refuses_a_kept_score(self, bad, width):
        model = UncheckedMaps(bad_first_step(bad))
        with pytest.raises(DecodeError, match=not_logprob(5, bad, "b", ())):
            constrained_beam_search(model, ("s",), ABCD_LATTICE, BeamConfig(width, 1, 4), source_id=5)

    @pytest.mark.parametrize("bad", [*BAD_SCORES, -math.inf])
    def test_a_map_is_checked_whole_before_it_is_ranked(self, bad):
        # the step map ("y") is ranked when ("y",) expands at step 2, and
        # ranking it reads every score, even one whose child step 2 would
        # prune, as ("y", "b") at -30 + -inf
        model = UncheckedMaps({key: StepMap(scores) for key, scores in {
            BOS: {"x": -0.1, "y": -30.0},
            "x": {"y": -0.1, EOS: -0.2},
            "y": {EOS: -1.0, "b": bad},
        }.items()})
        with pytest.raises(DecodeError, match=not_logprob(2, bad, "b", ("y",))):
            beam_search(model, ("s",), BeamConfig(2, 1, 4), source_id=2)

    @pytest.mark.parametrize("bad", BAD_SCORES)
    def test_forced_close_refuses_its_eos_score(self, bad):
        model = UncheckedMaps({BOS: {"a": -1.0}, "a": {EOS: bad}})
        with pytest.raises(DecodeError, match=not_logprob(1, bad, EOS, ("a",))):
            beam_search(model, ("s",), BeamConfig(1, 1, 1), source_id=1)

    @pytest.mark.parametrize("bad", BAD_SCORES)
    def test_a_map_below_the_bar_is_not_read(self, bad):
        # BAR_ENTRIES with a bad score after ("a",): at nbest 1 that item is
        # below the closed () when step 2 starts, so its map is never asked
        # for; at nbest 3 it is expanded and the score refused
        model = UncheckedMaps({BOS: {EOS: -0.5, "a": -1.0, "b": -0.2},
                               "b": {EOS: -0.1}, "a": {"c": bad, EOS: -0.1}})
        assert beam_search(model, ("s",), BeamConfig(3, 1, 4))[0] == Hypothesis(("b",), -0.2 + -0.1)
        with pytest.raises(DecodeError, match=not_logprob(3, bad, "c", ("a",))):
            beam_search(model, ("s",), BeamConfig(3, 3, 4), source_id=3)

    @pytest.mark.parametrize("floor", [*BAD_SCORES, -math.inf])
    def test_floor_is_checked_once_per_search(self, floor):
        model = UncheckedMaps(bad_first_step(-9.0), floor=floor)
        message = re.escape(f"source 4: model floor {floor!r} is not a finite log probability <= 0")
        with pytest.raises(DecodeError, match=message):
            beam_search(model, ("s",), BeamConfig(2), source_id=4)
        with pytest.raises(DecodeError, match=message):
            constrained_beam_search(model, ("s",), ABCD_LATTICE, BeamConfig(2), source_id=4)

    def test_finite_scores_decode_as_before(self):
        model = UncheckedMaps(bad_first_step(-9.0))
        for width in (1, 2, 4):
            cfg = BeamConfig(width, 1, 4)
            assert beam_search(model, ("s",), cfg)[0] == Hypothesis(("c",), -0.5 + -0.1)
            assert constrained_beam_search(model, ("s",), ABCD_LATTICE, cfg)[0] == Hypothesis(("c",), -0.5 + -0.1)


SOURCES = ("s1", "s2", "s3")
# "c" never gets lexical support, "lexonly" never occurs in the corpus
TARGETS = ("a", "b", "c")
LEXICAL_LPS = (0.0, -0.0, -0.1, -0.2, -0.3, -1.5, -7.0)


class TestNoisyChannelToy:
    def build(self):
        lexical = {"the": {"la": -0.2}, "doctor": {"médica": -0.3, "la": -5.0}}
        corpus = [("la", "médica")]
        return NoisyChannelToy(lexical, corpus)

    def test_bigram_smoothing_values(self):
        model = self.build()
        # vocab {la, médica} + EOS event -> denominator offset 3; the best
        # lexical logprobs are la -0.2 and médica -0.3, and EOS has none
        assert model.next_scores(SRC, ())["la"] == pytest.approx(-0.2 + math.log(2 / 4))
        assert model.next_scores(SRC, ("la",))["médica"] == pytest.approx(-0.3 + math.log(2 / 4))
        assert model.next_scores(SRC, ("la",))["la"] == pytest.approx(-0.2 + math.log(1 / 4))
        assert model.next_scores(SRC, ("la", "médica"))[EOS] == pytest.approx(math.log(2 / 4))

    def test_next_scores_max_over_source(self):
        model = self.build()
        scores = model.next_scores(SRC, ())
        # "la" is listed under both source tokens; the larger logprob wins
        assert scores["la"] == pytest.approx(-0.2 + math.log(2 / 4))
        assert scores["médica"] == pytest.approx(-0.3 + math.log(1 / 4))
        assert scores[EOS] == pytest.approx(math.log(1 / 4))

    def test_unsupported_target_floors(self):
        model = self.build()
        assert "zzz" not in model.next_scores(SRC, ())
        assert rescore(model, SRC, ("zzz",)) == model.floor + model.next_scores(SRC, ("zzz",))[EOS]

    def test_rescore_hand_sum(self):
        model = self.build()
        expected = (-0.2 + math.log(2 / 4)) + (-0.3 + math.log(2 / 4)) + math.log(2 / 4)
        assert rescore(model, SRC, ("la", "médica")) == pytest.approx(expected, abs=1e-12)

    def test_from_files(self, tmp_path):
        lex = tmp_path / "lex.tsv"
        lex.write_text("the\tla\t-0.2\ndoctor\tmédica\t-0.3\n", encoding="utf-8")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("la médica\n\n", encoding="utf-8")
        model = NoisyChannelToy.from_files(lex, corpus)
        assert model.next_scores(SRC, ())["la"] == pytest.approx(-0.2 + math.log(2 / 4))

    def test_bad_lexical_file(self, tmp_path):
        lex = tmp_path / "lex.tsv"
        lex.write_text("the\tla\n", encoding="utf-8")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("la\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r":1:"):
            NoisyChannelToy.from_files(lex, corpus)

    def test_repeated_lexical_entry(self, tmp_path):
        # an exact repeat collapses; another logprob for the same pair is an error
        lex = tmp_path / "lex.tsv"
        lex.write_text("x\ty\t-0.5\nx\ty\t-0.5\n", encoding="utf-8")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("y\n", encoding="utf-8")
        assert NoisyChannelToy.from_files(lex, corpus).next_scores(("x",), ())["y"] == pytest.approx(
            -0.5 + math.log(2 / 3))
        lex.write_text("x\ty\t-0.5\nx\ty\t-0.1\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"^\S*lex\.tsv:2: logprob -0\.1 for \('x', 'y'\) "
                                              r"conflicts with -0\.5 from line 1$"):
            NoisyChannelToy.from_files(lex, corpus)

    @pytest.mark.parametrize("source, target", [("x", token) for token in NOT_TOKENS]
                             + [(token, "c") for token in NOT_TOKENS])
    def test_lexical_fields_must_be_tokens(self, tmp_path, source, target):
        # a lexical row x<TAB>c d<TAB>-0.5 decoded the one-token hypothesis ('c d',)
        bad = target if source == "x" else source
        with pytest.raises(ValueError) as info:
            NoisyChannelToy({"x": {"c": -1.0}, source: {target: -0.5}}, [("c",)])
        assert str(info.value) == f"lexical entry ({source!r}, {target!r}): {_not_token(bad)}"
        if "\t" in bad:
            return  # a tab is the field separator of the file
        lex = tmp_path / "lex.tsv"
        lex.write_text(f"x\tc\t-1.0\n{source}\t{target}\t-0.5\n", encoding="utf-8")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("c\n", encoding="utf-8")
        with pytest.raises(FormatError) as info:
            NoisyChannelToy.from_files(lex, corpus)
        assert str(info.value) == f"{lex}:2: {_not_token(bad)}"

    @pytest.mark.parametrize("token", NOT_TOKENS)
    def test_corpus_tokens_must_be_tokens(self, token):
        with pytest.raises(ValueError) as info:
            NoisyChannelToy({"x": {"c": -0.5}}, [("c",), ("c", token), (token,)])
        assert str(info.value) == f"corpus line 1: {_not_token(token)}"

    @pytest.mark.parametrize("token", [BOS, EOS])
    def test_reserved_lexical_target_names_its_entry(self, token):
        # an EOS target was dropped without a word, and a BOS one was emitted
        with pytest.raises(ValueError) as info:
            NoisyChannelToy({"x": {"a": -1.0, token: -0.1}}, [("a",)])
        assert str(info.value) == (f"lexical entry ('x', {token!r}): "
                                   f"token {token!r} is reserved for the sentence boundaries")

    @pytest.mark.parametrize("token", [BOS, EOS])
    def test_reserved_lexical_target_in_file_names_its_line(self, tmp_path, token):
        lex = tmp_path / "lex.tsv"
        lex.write_text(f"the\tla\t-0.2\nthe\t{token}\t-0.1\n", encoding="utf-8")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("la\n", encoding="utf-8")
        with pytest.raises(FormatError) as info:
            NoisyChannelToy.from_files(lex, corpus)
        assert str(info.value) == f"{lex}:2: token {token!r} is reserved for the sentence boundaries"

    @pytest.mark.parametrize("token", [BOS, EOS])
    def test_reserved_token_in_corpus_file_names_its_line(self, tmp_path, token):
        # counted as words, they would merge with the sentence boundaries
        lex = tmp_path / "lex.tsv"
        lex.write_text("the\tla\t-0.2\n", encoding="utf-8")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(f"la médica\n\nla {token} la\nla {token}\nla médica\n", encoding="utf-8")
        with pytest.raises(FormatError) as info:
            NoisyChannelToy.from_files(lex, corpus)
        assert str(info.value) == f"{corpus}:3: token {token!r} is reserved for the sentence boundaries"

    @pytest.mark.parametrize("line", [(BOS,), (EOS,), (BOS, "la"), ("la", EOS), ("la", BOS, "la")],
                             ids=["bos", "eos", "bos-first", "eos-last", "bos-inside"])
    def test_reserved_token_in_corpus_names_its_index(self, line):
        token = BOS if BOS in line else EOS
        with pytest.raises(ValueError) as info:
            NoisyChannelToy({}, iter([("la",), (), line, line]))
        assert str(info.value) == f"corpus line 2: token {token!r} is reserved for the sentence boundaries"

    def test_forced_bos_is_an_unseen_context(self):
        # only the empty prefix reads the sentence-start row
        model = NoisyChannelToy({"x": {"a": -1.0}}, [("a",), ("a", "a")])
        start = model.next_scores(("x",), ())
        forced = model.next_scores(("x",), (BOS,))
        assert forced is not start
        assert forced == model.next_scores(("x",), ("zz",)) != start

    def test_step_cache_holds_only_current_source(self):
        other = ("doctor",)
        model = self.build()
        first = beam_search(model, other, BeamConfig(3, max_len=3))
        second = beam_search(model, SRC, BeamConfig(3, max_len=3))
        fresh = self.build()
        assert beam_search(fresh, SRC, BeamConfig(3, max_len=3)) == second
        assert beam_search(self.build(), other, BeamConfig(3, max_len=3)) == first
        assert model._step_source == SRC
        assert model._step_cache.keys() == fresh._step_cache.keys()

    @settings(max_examples=300)
    @given(
        corpus=st.lists(st.lists(st.sampled_from(TARGETS), max_size=5), max_size=6),
        lexical=st.dictionaries(
            st.sampled_from(SOURCES),
            # no EOS: a lexical EOS target is refused (test_reserved_lexical_target_*)
            st.dictionaries(st.sampled_from((*TARGETS, "lexonly")), st.sampled_from(LEXICAL_LPS),
                            max_size=4),
            max_size=3,
        ),
        sources=st.lists(st.lists(st.sampled_from(SOURCES), min_size=1, max_size=3), min_size=1, max_size=3),
        queries=st.lists(
            st.tuples(st.integers(0, 2), st.sampled_from(("held", "copy", "list")),
                      st.sampled_from((BOS, *TARGETS, "unseen"))),
            min_size=1, max_size=8,
        ),
    )
    def test_step_map_is_bit_exact(self, corpus, lexical, sources, queries):
        """One model answers a sequence of sources, switching back and forth
        and passed as the held tuple, an equal copy or a list. Each answer
        equals, value by value and in order, best lexical plus
        log((count + 1) / (context + V)) counted straight from the corpus for
        that source."""
        bigrams, contexts, vocab = {}, {}, set()
        for line in corpus:
            vocab.update(line)
            for pair in zip((BOS, *line), (*line, EOS)):
                bigrams[pair] = bigrams.get(pair, 0) + 1
                contexts[pair[0]] = contexts.get(pair[0], 0) + 1
        held = [tuple(source) for source in sources]
        model = NoisyChannelToy(lexical, corpus)
        for index, form, prev in queries:
            source = held[index % len(held)]
            denom = contexts.get(prev, 0) + len(vocab) + 1
            best = {}
            for word in source:
                for target, lp in lexical.get(word, {}).items():
                    if target not in best or lp > best[target]:
                        best[target] = lp
            naive = {t: lp + math.log((bigrams.get((prev, t), 0) + 1) / denom) for t, lp in best.items()}
            naive[EOS] = math.log((bigrams.get((prev, EOS), 0) + 1) / denom)
            asked = {"held": source, "copy": tuple(list(source)), "list": list(source)}[form]
            scores = model.next_scores(asked, () if prev == BOS else ("x", prev))
            assert [(t, repr(lp)) for t, lp in scores.items()] == [(t, repr(lp)) for t, lp in naive.items()]


CORPUS_WORDS = ("la", "m\u00e9dica", "me\u0301dica", "el", "x")


class TestNoisyChannelFiles:
    """from_files counts each distinct raw line once; the counts, their order
    and every step map equal the constructor's on the NFC-split, non-empty
    lines. Raw lines that differ only in their spelling before NFC or in
    their line end are distinct there but add to the same counts."""

    @settings(max_examples=200, deadline=None)
    @given(
        pool=st.lists(st.lists(st.sampled_from(CORPUS_WORDS), min_size=1, max_size=4), min_size=1, max_size=4),
        picks=st.lists(st.tuples(st.integers(0, 3), st.sampled_from((" ", "  ", "\t", " \t ")),
                                 st.sampled_from((None, "NFC", "NFD"))),
                       max_size=12),
        blanks=st.lists(st.tuples(st.integers(0, 12), st.sampled_from(("", " ", "\t  "))), max_size=3),
        ends=st.lists(st.sampled_from(("\n", "\r\n", "\r")), min_size=16, max_size=16),
        last_end=st.booleans(),
    )
    def test_files_count_like_the_constructor(self, tmp_path_factory, pool, picks, blanks, ends, last_end):
        lines = [sep.join(pool[index % len(pool)]) for index, sep, _ in picks]
        lines = [line if form is None else unicodedata.normalize(form, line)
                 for line, (_, _, form) in zip(lines, picks)]
        for position, blank in blanks:
            lines.insert(min(position, len(lines)), blank)
        directory = tmp_path_factory.mktemp("corpus")
        lex = directory / "lex.tsv"
        lex.write_text("s\tla\t-0.2\ns\tm\u00e9dica\t-0.3\nt\tel\t-1.0\nt\tx\t-0.1\n", encoding="utf-8")
        corpus = directory / "corpus.txt"
        text = "".join(line + end for line, end in zip(lines, ends))
        if lines and not last_end:
            text = text[:-len(ends[len(lines) - 1])]
        corpus.write_bytes(text.encode("utf-8"))
        split = [tuple(unicodedata.normalize("NFC", line).split()) for line in lines]
        loaded = NoisyChannelToy.from_files(lex, corpus)
        built = NoisyChannelToy(loaded._lexical, [tokens for tokens in split if tokens])
        assert bigram_fields(loaded) == bigram_fields(built)
        for source in (("s",), ("s", "t")):
            for prev in (BOS, "la", "m\u00e9dica", "el", "x", "unseen"):
                prefix = () if prev == BOS else (prev,)
                assert (repr(list(loaded.next_scores(source, prefix).items()))
                        == repr(list(built.next_scores(source, prefix).items())))

    def test_distinct_lines_are_held_once(self, tmp_path):
        """On a corpus of distinct lines the counter of raw lines is most of
        from_files' traced peak. On CPython 3.11 and these 10,000 lines,
        from_files measured 1.00 times that counter's peak, and a variant
        that also kept a second table of the normalized lines 1.99."""
        rng = random.Random(5)
        words = ("la", "el", "m\u00e9dica", "m\u00e9dico", "una", "un", "pinta", "alta")
        lines = set()
        while len(lines) < 10_000:
            lines.add(" ".join(rng.choice(words) for _ in range(rng.randint(6, 10))))
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("".join(line + "\n" for line in sorted(lines)), encoding="utf-8")
        lex = tmp_path / "lex.tsv"
        lex.write_text("s\tla\t-0.2\n", encoding="utf-8")

        def traced_peak(load):
            gc.collect()
            tracemalloc.start()
            try:
                load()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with open(corpus, encoding="utf-8") as handle:
            counted = traced_peak(lambda: Counter(handle))
        assert traced_peak(lambda: NoisyChannelToy.from_files(lex, corpus)) < 1.4 * counted


class TestConstrainedSearch:
    def test_toy_lattice_all_four_sorted(self):
        model = masc_biased_table()
        lattice = compose_lattice(TOY_PAIRS, ["el", "médico"])
        result = constrained_beam_search(model, SRC, lattice, BeamConfig(4))
        assert [h.tokens for h in result] == [
            ("el", "médico"),
            ("el", "médica"),  # ties with la médico at -3.5; lexicographic order
            ("la", "médico"),
            ("la", "médica"),
        ]
        assert [h.loglik for h in result] == pytest.approx([-2.5, -3.5, -3.5, -4.5])

    def test_single_path_lattice(self):
        lattice = compose_lattice(ReinflectionPairSet([]), ["solo", "camino"])
        result = constrained_beam_search(HashScorer(["x"]), ("s",), lattice, BeamConfig(3))
        assert len(result) == 1
        assert result[0].tokens == ("solo", "camino")

    def test_containment(self):
        rng = random.Random(5)
        for _ in range(20):
            lattice = random_lattice(rng)
            model = HashScorer(["x", "y"])
            result = constrained_beam_search(model, ("s",), lattice, BeamConfig(2))
            paths = set(realizations(lattice))
            for hyp in result:
                assert hyp.tokens in paths

    @given(rng=st.randoms(use_true_random=False), extra=st.integers(0, 2))
    def test_exactness_at_full_width(self, rng, extra):
        lattice = random_lattice(rng)
        model = HashScorer(["x", "y"])
        width = lattice.path_count + extra
        result = constrained_beam_search(model, ("s",), lattice, BeamConfig(width))
        expected = oracle_nbest(model, ("s",), lattice, width)
        assert [h.tokens for h in result] == [h.tokens for h in expected]
        for got, want in zip(result, expected):
            assert got.loglik == pytest.approx(want.loglik, abs=1e-9)

    def test_multi_token_arcs_forced_and_scored(self):
        lattice = compose_lattice(TOY_PAIRS, ["médico"], segmenter=MEDIC_TABLE)
        model = TableModel(
            {
                (SRC_KEY, BOS): {"médic": -0.5},
                (SRC_KEY, "médic"): {"o": -0.25, "a": -0.75},
                (SRC_KEY, "médic o"): {EOS: -0.1},
                (SRC_KEY, "médic a"): {EOS: -0.1},
            }
        )
        result = constrained_beam_search(model, SRC, lattice, BeamConfig(2))
        assert [(h.tokens, round(h.loglik, 6)) for h in result] == [
            (("médic", "o"), -0.85),
            (("médic", "a"), -1.35),
        ]

    def test_max_len_too_short_raises(self):
        lattice = compose_lattice(ReinflectionPairSet([]), ["a", "b", "c"])
        with pytest.raises(DecodeError, match="source 3"):
            constrained_beam_search(HashScorer(["x"]), ("s",), lattice, BeamConfig(2, max_len=2), source_id=3)

    def test_permissive_lattice_equals_fixed_length_unconstrained(self):
        vocab = ("p", "q", "r")
        model = HashScorer(vocab, include_eos=False)
        length = 3
        pairs = []
        for a in vocab:
            for b in vocab:
                if a != b:
                    pairs.append((a, b, MASCULINE))
        permissive = compose_lattice(ReinflectionPairSet(pairs), ["p"] * length)
        cfg = BeamConfig(5, max_len=length)
        constrained = constrained_beam_search(model, ("s",), permissive, cfg)
        unconstrained = beam_search(model, ("s",), cfg)
        assert constrained == unconstrained


# Lattice tokens are drawn from a small alphabet, so arcs at one position
# share first tokens, whole token sequences, and prefixes with arcs of
# other lengths; "c" is outside the scorer's vocabulary and always floors.
LATTICE_TOKENS = ("a", "b", "c")


class GridScorer(ScoringModel):
    """Step maps over vocab and EOS picked from a value grid by a hash of
    (salt, prefix, token); None leaves the token out, so it scores the floor.

    Every call builds a new map. With by_last a map depends only on the
    prefix's length and last token, and the scorer keeps the maps of the
    latest length it was asked for: prefixes of one length that end alike
    get one map back, and the maps of a shorter length are let go."""

    def __init__(self, values, salt, vocab=("a", "b"), by_last=False):
        self.values, self.salt, self.vocab, self.by_last = values, salt, vocab, by_last
        self._length, self._kept = -1, {}

    def next_scores(self, source, prefix):
        if not self.by_last:
            return self._build(" ".join(prefix))
        if len(prefix) != self._length:
            self._length, self._kept = len(prefix), {}
        key = f"{len(prefix)} {prefix[-1] if prefix else BOS}"
        if key not in self._kept:
            self._kept[key] = self._build(key)
        return self._kept[key]

    def _build(self, key):
        scores = {}
        for token in (*self.vocab, EOS):
            pick = self.values[zlib.crc32(f"{self.salt}|{key}|{token}".encode()) % len(self.values)]
            if pick is not None:
                scores[token] = pick
        return scores


@st.composite
def token_lattices(draw):
    positions = [[] for _ in range(draw(st.integers(1, 3)))]
    for position, arcs in enumerate(positions):
        for variant in range(draw(st.integers(1, 3))):
            tokens = draw(st.lists(st.sampled_from(LATTICE_TOKENS), min_size=1, max_size=3))
            arcs.append(LatticeArc(f"w{position}v{variant}", tuple(tokens)))
    return HypothesisLattice(positions)


class TestConstrainedSearchMatchesReference:
    @settings(max_examples=500)
    @given(
        lattice=token_lattices(),
        values=st.lists(st.sampled_from(SCORE_GRID), min_size=1, max_size=6),
        salt=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_equals_arc_walking_reference(self, lattice, values, salt, data):
        shortest = sum(min(len(arc.model_tokens) for arc in lattice.arcs_at(i))
                       for i in range(lattice.num_positions))
        longest = sum(max(len(arc.model_tokens) for arc in lattice.arcs_at(i))
                      for i in range(lattice.num_positions))
        width = data.draw(st.integers(1, lattice.path_count + 1))
        max_len = data.draw(st.integers(max(1, shortest - 1), longest + 1))
        cfg = BeamConfig(width, data.draw(st.integers(1, width)), max_len)
        model = GridScorer(values, salt)
        assert (run_or_error(constrained_beam_search, model, lattice, cfg)
                == run_or_error(reference_constrained_beam_search, model, lattice, cfg))

    def test_shared_prefix_ties_break_by_state(self):
        # every token scores the floor, so the first "a" of arcs p and q
        # ties; p's inner state is numbered first, so it wins width 1 and
        # the result is the shorter, better path
        lattice = HypothesisLattice([
            [LatticeArc("p", ("a", "x")), LatticeArc("q", ("a", "x", "b"))],
            [LatticeArc("r", ("a",))],
        ])
        model = TableModel({})
        for width in (1, 2, 3):
            cfg = BeamConfig(width, 1)
            result = constrained_beam_search(model, ("s",), lattice, cfg)
            assert result == reference_constrained_beam_search(model, ("s",), lattice, cfg)


@st.composite
def beam_configs(draw):
    width = draw(st.integers(1, 4))
    return BeamConfig(width, draw(st.integers(1, width)), draw(st.integers(1, 4)))


class TestTwoPass:
    def toy_model(self):
        entries = {
            (SRC_KEY, BOS): {"el": -0.1, "la": -2.0},
            (SRC_KEY, "el"): {"médico": -0.1, "médica": -2.0},
            (SRC_KEY, "la"): {"médico": -0.1, "médica": -2.0},
        }
        for first in ("el", "la"):
            for second in ("médico", "médica"):
                entries[(SRC_KEY, f"{first} {second}")] = {EOS: -0.05}
        return TableModel(entries)

    def test_fig_workflow_produces_all_variants(self):
        result = two_pass_decode(
            self.toy_model(), SRC, TOY_PAIRS, BeamConfig(2), BeamConfig(4)
        )
        tokens = [h.tokens for h in result]
        assert len(tokens) == 4
        assert ("la", "médica") in tokens
        assert tokens[0] == ("el", "médico")  # masculine bias keeps it first

    def test_empty_pairs_collapse_to_first_pass_best(self):
        model = self.toy_model()
        first = beam_search(model, SRC, BeamConfig(2))
        result = two_pass_decode(model, SRC, ReinflectionPairSet([]), BeamConfig(2), BeamConfig(4))
        assert len(result) == 1
        assert result[0] == first[0]

    def test_empty_first_best_names_the_source(self):
        # the BOS step prefers EOS, so the first pass's 1-best is empty
        model = TableModel({(SRC_KEY, BOS): {EOS: -0.1, "el": -1.0}, (SRC_KEY, "el"): {EOS: -0.1}})
        assert beam_search(model, SRC, BeamConfig(2))[0].tokens == ()
        with pytest.raises(DecodeError, match=r"^source 7: first-pass 1-best is empty$"):
            two_pass_decode(model, SRC, TOY_PAIRS, BeamConfig(2), BeamConfig(2), source_id=7)

    def test_biased_model_still_yields_all_variants_masculine_first(self):
        result = two_pass_decode(
            masc_biased_table(), SRC, TOY_PAIRS, BeamConfig(4), BeamConfig(4)
        )
        ordered = [h.tokens for h in result]
        assert ordered[0] == ("el", "médico")
        assert set(ordered) == {
            ("el", "médico"),
            ("el", "médica"),
            ("la", "médico"),
            ("la", "médica"),
        }

    @settings(max_examples=300)
    @given(
        vocab=st.lists(st.sampled_from(("el", "la", "médico", "médica", "x")),
                       min_size=1, max_size=4, unique=True),
        values=st.lists(st.sampled_from(SCORE_GRID), min_size=1, max_size=6),
        salt=st.integers(0, 2**16),
        by_last=st.booleans(),
        cfg_first=beam_configs(),
        cfg_second=beam_configs(),
    )
    def test_two_configs_equal_reference_composition(self, vocab, values, salt, by_last, cfg_first, cfg_second):
        # the first pass runs at cfg_first only, and the constrained pass
        # over its 1-best's lattice at cfg_second only
        assume(cfg_first != cfg_second)
        model = GridScorer(values, salt, tuple(vocab), by_last=by_last)
        assert (run_or_error(two_pass_decode, model, TOY_PAIRS, cfg_first, cfg_second)
                == run_or_error(reference_two_pass, model, TOY_PAIRS, cfg_first, cfg_second))

    @settings(max_examples=200)
    @given(
        vocab=st.lists(st.sampled_from(("el", "la", "médico", "médica", "x")),
                       min_size=1, max_size=4, unique=True),
        values=st.lists(st.sampled_from(SCORE_GRID), min_size=1, max_size=6),
        salt=st.integers(0, 2**16),
        by_last=st.booleans(),
        cfg_first=beam_configs(),
        cfg_second=beam_configs(),
    )
    def test_first_nbest_is_ignored(self, vocab, values, salt, by_last, cfg_first, cfg_second):
        # the first pass is read for its 1-best alone, so every list size
        # at cfg_first's width gives the reference's output at full size
        model = GridScorer(values, salt, tuple(vocab), by_last=by_last)
        width, max_len = cfg_first.beam_width, cfg_first.max_len
        expected = run_or_error(reference_two_pass, model, TOY_PAIRS, BeamConfig(width, width, max_len), cfg_second)
        for nbest in range(1, width + 1):
            first = BeamConfig(width, nbest, max_len)
            assert run_or_error(two_pass_decode, model, TOY_PAIRS, first, cfg_second) == expected
