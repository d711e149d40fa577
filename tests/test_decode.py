import itertools
import math
import random
import weakref
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    HashScorer,
    oracle_nbest,
    random_lattice,
    realizations,
    reference_beam_search,
    reference_constrained_beam_search,
)

from genderbeam.decode import (
    BOS,
    EOS,
    BeamConfig,
    Hypothesis,
    NBestList,
    NoisyChannelToy,
    ScoringModel,
    TableModel,
    beam_search,
    constrained_beam_search,
    rescore,
    two_pass_decode,
)
from genderbeam.errors import DecodeError, FormatError
from genderbeam.lattice import HypothesisLattice, LatticeArc, compose_lattice
from genderbeam.morpho import FEMININE, MASCULINE, ReinflectionPairSet
from genderbeam.segment import SubwordTable

TOY_PAIRS = ReinflectionPairSet(
    [
        ("el", "la", FEMININE),
        ("la", "el", MASCULINE),
        ("médico", "médica", FEMININE),
        ("médica", "médico", MASCULINE),
    ]
)

SRC = ("the", "doctor")
SRC_KEY = "the doctor"


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


class TestNBestList:
    def test_sorts_non_increasing(self):
        nbest = NBestList(0, [Hypothesis(("b",), -2.0), Hypothesis(("a",), -1.0)])
        assert [h.loglik for h in nbest] == [-1.0, -2.0]

    def test_stable_on_ties(self):
        nbest = NBestList(0, [Hypothesis(("z",), -1.0), Hypothesis(("a",), -1.0)])
        assert [h.tokens for h in nbest] == [("z",), ("a",)]


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


# Score grid for the reference property test. Sums tie exactly (0.0 and
# -0.0), tie in the reals but not after rounding (-0.1 + -0.2 against -0.3),
# and tie only after rounding (-1e16 + -0.5 against -1e16 + -1.0). None
# leaves the entry out of the step map, which is how maps go without EOS.
SCORE_GRID = (None, 0.0, -0.0, -0.1, -0.2, -0.3, -0.5, -1.0, -1e16)


def grid_table(vocab, values, salt, max_len):
    """TableModel over every prefix up to max_len, so that forced closes at
    max_len read a listed EOS score or the floor alike. Each entry is a
    deterministic pick from values."""
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
    return TableModel(entries)


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
        # the table's maps live as long as it does; GridScorer builds a new
        # map on every call, and with by_last hands some back before it lets
        # them go, so a search that did not hold them could meet their ids
        # again on other maps
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
        assert most <= width + 1  # the width latest maps and the map last walked

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
        # vocab {la, médica} + EOS event -> denominator offset 3
        assert model.bigram_logprob(BOS, "la") == pytest.approx(math.log(2 / 4))
        assert model.bigram_logprob("la", "médica") == pytest.approx(math.log(2 / 4))
        assert model.bigram_logprob("la", "la") == pytest.approx(math.log(1 / 4))
        assert model.bigram_logprob("médica", EOS) == pytest.approx(math.log(2 / 4))

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
        assert model.bigram_logprob(BOS, "la") == pytest.approx(math.log(2 / 4))

    def test_bad_lexical_file(self, tmp_path):
        lex = tmp_path / "lex.tsv"
        lex.write_text("the\tla\n", encoding="utf-8")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("la\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r":1:"):
            NoisyChannelToy.from_files(lex, corpus)

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
            st.dictionaries(st.sampled_from((*TARGETS, "lexonly", EOS)), st.sampled_from(LEXICAL_LPS),
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
            for token in (*TARGETS, EOS):
                assert repr(model.bigram_logprob(prev, token)) == repr(
                    math.log((bigrams.get((prev, token), 0) + 1) / denom))


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

    def test_exactness_at_full_width(self):
        rng = random.Random(11)
        for _ in range(20):
            lattice = random_lattice(rng)
            model = HashScorer(["x", "y"])
            width = lattice.path_count
            result = constrained_beam_search(model, ("s",), lattice, BeamConfig(width))
            expected = oracle_nbest(model, ("s",), lattice, width)
            assert [h.tokens for h in result] == [h.tokens for h in expected]
            for got, want in zip(result, expected):
                assert got.loglik == pytest.approx(want.loglik, abs=1e-9)

    def test_multi_token_arcs_forced_and_scored(self):
        table = SubwordTable({"médica": ("médic", "a"), "médico": ("médic", "o")})
        lattice = compose_lattice(TOY_PAIRS, ["médico"], segmenter=table)
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
    arcs = []
    for position in range(draw(st.integers(1, 3))):
        for variant in range(draw(st.integers(1, 3))):
            tokens = draw(st.lists(st.sampled_from(LATTICE_TOKENS), min_size=1, max_size=3))
            arcs.append(LatticeArc(position, position + 1, f"w{position}v{variant}", tuple(tokens)))
    return HypothesisLattice(arcs)


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
            LatticeArc(0, 1, "p", ("a", "x")),
            LatticeArc(0, 1, "q", ("a", "x", "b")),
            LatticeArc(1, 2, "r", ("a",)),
        ])
        model = TableModel({}, floor=-1.0)
        for width in (1, 2, 3):
            cfg = BeamConfig(width, 1)
            result = constrained_beam_search(model, ("s",), lattice, cfg)
            assert result == reference_constrained_beam_search(model, ("s",), lattice, cfg)


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
