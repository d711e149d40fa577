"""Bundled synthetic benchmark: 200 templated sentences translated into a
toy gendered target language by a masculine-biased noisy-channel model.

The source side distinguishes 200 profession words; the target side reuses
four sentence frames whose gendered slots inflect with -o (masculine) and
-a (feminine). Feminine forms cost more than their masculine counterparts
by calibrated lexical margins, and the corpus enumerates every gender
combination of every frame so the bigram term is exactly symmetric under
single-slot gender flips. Flip costs therefore add up independently, which
pins the first agreeing variant of each feminine-gold sentence to a known
rank of its constrained candidate list:

- distractor slots (object, pronoun, three adjectives) cost 1, 2, 4, 8 and
  16 cost units to flip, so their 32 subset sums are exactly 0..31 units;
- the profession noun's flip costs (rank - 1.5) units, placing it strictly
  between subset sums rank-2 and rank-1, i.e. at list position `rank`;
- 16 feminine rows have no feminine noun in the model's lexical table at
  all, so their agreeing variants score the model floor and sit beyond any
  practical beam: a built-in accuracy ceiling.

Masculine-gold rows always agree at rank 1. With the bundled rank
distribution the oracle-reranked constrained pipeline scores 0.70 / 0.80 /
0.86 / 0.90 / 0.92 at beam widths 4 / 8 / 12 / 16 / 20, the unconstrained
reranked pipeline 0.84 at width 20, and the 1-best baseline 0.50.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .decode import NoisyChannelToy
from .evaluation import TestSentence
from .morpho import (
    FEMININE,
    MASCULINE,
    GenderLabel,
    GenderLexicon,
    LexiconEntry,
    ReinflectionPairSet,
    build_reinflection_pairs,
    write_lexicon,
    write_pairs,
    write_rows,
)
from .formats import write_testset

ROW_COUNT = 200
FEM_ROW_COUNT = 100
TRIGGER_INDEX = 4
ENTITY_INDEX = 0

BASE_LOGPROB = -0.02
UNIT = 0.02
SYNONYM_GAP = 0.003
# distractor slot name -> flip cost in UNITs; powers of two keep subset sums distinct
DISTRACTOR_UNITS = {"obj": 1, "pron": 2, "adj1": 4, "adj2": 8, "adj3": 16}
MASC_DELTA_UNITS = 8.5

# first-agreeing constrained rank -> number of feminine rows placed there
FEM_RANK_COUNTS = {
    2: 22, 3: 10, 4: 8, 5: 8, 6: 6, 7: 4, 8: 2, 9: 4,
    10: 4, 11: 2, 12: 2, 13: 3, 14: 2, 15: 2, 16: 1, 17: 4,
}
FLOOR_ROW_COUNT = 16


@dataclass(frozen=True)
class _FrameClass:
    noun: str
    verbs: tuple[str, str]
    obj: str
    # pronouns agree with the frame's noun class, so the bigram chain never
    # forgets the class mid-sentence and wrong-class branches die at once
    pron: str
    adjs: tuple[str, str, str]
    connectors: tuple[str, str, str, str]
    src_act: str
    src_obj: str
    src_adjs: tuple[str, str, str]


FRAME_CLASSES = (
    _FrameClass(
        noun="pentrist", verbs=("pentras", "farbas"), obj="mur", pron="el",
        adjs=("alt", "jun", "lert"), connectors=("cxar", "estis", "sed", "kaj"),
        src_act="paints", src_obj="walls", src_adjs=("tall", "young", "deft"),
    ),
    _FrameClass(
        noun="konstruist", verbs=("konstruas", "masonas"), obj="dom", pron="il",
        adjs=("fort", "nov", "zorg"), connectors=("pro", "farigxis", "tamen", "plus"),
        src_act="builds", src_obj="houses", src_adjs=("strong", "new", "careful"),
    ),
    _FrameClass(
        noun="verkist", verbs=("verkas", "skribas"), obj="libr", pron="ol",
        adjs=("sagx", "kviet", "atent"), connectors=("tial", "sxajnis", "kvankam", "ankaw"),
        src_act="writes", src_obj="books", src_adjs=("wise", "quiet", "attentive"),
    ),
    _FrameClass(
        noun="vendist", verbs=("vendas", "ofertas"), obj="var", pron="ul",
        adjs=("vigl", "rapid", "fidel"), connectors=("ke", "restis", "malgraw", "kune"),
        src_act="sells", src_obj="goods", src_adjs=("lively", "fast", "loyal"),
    ),
)

SRC_CONNECTORS = ("because", "was", "but", "and")


@dataclass(frozen=True)
class SynthBenchmark:
    lexicon: GenderLexicon
    pairs: ReinflectionPairSet
    model: NoisyChannelToy
    testset: tuple[TestSentence, ...]
    pronoun_table: Mapping[str, GenderLabel]
    noun_words: tuple[str, ...]
    lexical: Mapping[str, Mapping[str, float]]
    corpus: tuple[tuple[str, ...], ...]
    # sent_id -> designed first-agreeing constrained rank; None marks the
    # lexical-gap rows whose feminine variant only scores the floor
    fem_ranks: Mapping[int, int | None]


def _form(stem: str, feminine: bool) -> str:
    return stem + ("a" if feminine else "o")


def _profession(row: int) -> str:
    return f"worker{row:03d}"


def _source_tokens(row: int) -> tuple[str, ...]:
    cls = FRAME_CLASSES[row % 4]
    pronoun = "she" if row < FEM_ROW_COUNT else "he"
    return (
        _profession(row), cls.src_act, cls.src_obj, SRC_CONNECTORS[0], pronoun,
        SRC_CONNECTORS[1], cls.src_adjs[0], SRC_CONNECTORS[2], cls.src_adjs[1],
        SRC_CONNECTORS[3], cls.src_adjs[2],
    )


def _target_tokens(cls: _FrameClass, fem: tuple[bool, ...], verb_index: int) -> tuple[str, ...]:
    noun, obj, pron, adj1, adj2, adj3 = fem
    return (
        _form(cls.noun, noun), cls.verbs[verb_index], _form(cls.obj, obj),
        cls.connectors[0], _form(cls.pron, pron), cls.connectors[1],
        _form(cls.adjs[0], adj1), cls.connectors[2], _form(cls.adjs[1], adj2),
        cls.connectors[3], _form(cls.adjs[2], adj3),
    )


def _build_lexicon() -> GenderLexicon:
    entries = []
    for cls in FRAME_CLASSES:
        stems = [(cls.noun, "NOUN.sg"), (cls.obj, "NOUN.sg"), (cls.pron, "PRON.sg")]
        stems += [(adj, "ADJ.sg") for adj in cls.adjs]
        for stem, features in stems:
            entries.append(LexiconEntry(_form(stem, False), stem, features, MASCULINE))
            entries.append(LexiconEntry(_form(stem, True), stem, features, FEMININE))
    return GenderLexicon(entries=entries)


def _fem_rank_assignment(rng: random.Random) -> list[int | None]:
    ranks: list[int | None] = [
        rank for rank in sorted(FEM_RANK_COUNTS) for _ in range(FEM_RANK_COUNTS[rank])
    ]
    ranks += [None] * FLOOR_ROW_COUNT
    assert len(ranks) == FEM_ROW_COUNT
    rng.shuffle(ranks)
    return ranks


def _build_lexical(fem_ranks: Mapping[int, int | None]) -> dict[str, dict[str, float]]:
    lexical: dict[str, dict[str, float]] = {}
    for row in range(ROW_COUNT):
        cls = FRAME_CLASSES[row % 4]
        rank = fem_ranks.get(row)
        noun_scores = {_form(cls.noun, False): BASE_LOGPROB}
        if row >= FEM_ROW_COUNT:
            delta = MASC_DELTA_UNITS * UNIT
            noun_scores[_form(cls.noun, True)] = BASE_LOGPROB - delta
        elif rank is not None:
            delta = (rank - 1.5) * UNIT
            noun_scores[_form(cls.noun, True)] = BASE_LOGPROB - delta
        lexical[_profession(row)] = noun_scores
    for cls in FRAME_CLASSES:
        lexical[cls.src_act] = {
            cls.verbs[0]: BASE_LOGPROB,
            cls.verbs[1]: BASE_LOGPROB - SYNONYM_GAP,
        }
        lexical[cls.src_obj] = {
            _form(cls.obj, False): BASE_LOGPROB,
            _form(cls.obj, True): BASE_LOGPROB - DISTRACTOR_UNITS["obj"] * UNIT,
        }
        for name, adj, source in zip(("adj1", "adj2", "adj3"), cls.adjs, cls.src_adjs):
            lexical[source] = {
                _form(adj, False): BASE_LOGPROB,
                _form(adj, True): BASE_LOGPROB - DISTRACTOR_UNITS[name] * UNIT,
            }
    # the same biased pronoun scores whatever the source pronoun says
    pron_scores = {}
    for cls in FRAME_CLASSES:
        pron_scores[_form(cls.pron, False)] = BASE_LOGPROB
        pron_scores[_form(cls.pron, True)] = BASE_LOGPROB - DISTRACTOR_UNITS["pron"] * UNIT
    for pronoun in ("she", "he"):
        lexical[pronoun] = dict(pron_scores)
    for index, source in enumerate(SRC_CONNECTORS):
        lexical[source] = {cls.connectors[index]: BASE_LOGPROB for cls in FRAME_CLASSES}
    return lexical


def _build_corpus() -> list[tuple[str, ...]]:
    corpus = []
    for row in range(ROW_COUNT):
        cls = FRAME_CLASSES[row % 4]
        for fem in itertools.product((False, True), repeat=6):
            for verb_index in (0, 1):
                corpus.append(_target_tokens(cls, fem, verb_index))
    return corpus


def build_benchmark(seed: int = 0) -> SynthBenchmark:
    """Construct the benchmark in memory; the seed permutes which profession
    gets which rank, leaving every aggregate metric unchanged."""
    sums = {
        sum(units)
        for size in range(6)
        for units in itertools.combinations(DISTRACTOR_UNITS.values(), size)
    }
    assert len(sums) == 32, "distractor subset sums must be distinct"

    rng = random.Random(seed)
    ranks = _fem_rank_assignment(rng)
    fem_ranks: dict[int, int | None] = {row: ranks[row] for row in range(FEM_ROW_COUNT)}

    lexicon = _build_lexicon()
    pairs = build_reinflection_pairs(lexicon)
    lexical = _build_lexical(fem_ranks)
    corpus = _build_corpus()
    model = NoisyChannelToy(lexical, corpus)

    testset = tuple(
        TestSentence(
            row,
            FEMININE if row < FEM_ROW_COUNT else MASCULINE,
            _source_tokens(row),
            TRIGGER_INDEX,
            frozenset({ENTITY_INDEX}),
        )
        for row in range(ROW_COUNT)
    )
    pronoun_table = {"she": FEMININE, "he": MASCULINE}
    noun_words = tuple(_profession(row) for row in range(ROW_COUNT))
    return SynthBenchmark(
        lexicon=lexicon,
        pairs=pairs,
        model=model,
        testset=testset,
        pronoun_table=pronoun_table,
        noun_words=noun_words,
        lexical=lexical,
        corpus=tuple(corpus),
        fem_ranks=fem_ranks,
    )


def write_benchmark(benchmark: SynthBenchmark, directory: str | Path) -> dict[str, Path]:
    """Write every benchmark file under `directory`; returns name -> path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "lexicon": directory / "lexicon.tsv",
        "pairs": directory / "pairs.tsv",
        "lexical": directory / "model.lexical.tsv",
        "corpus": directory / "corpus.txt",
        "testset": directory / "testset.tsv",
        "pronouns": directory / "pronouns.tsv",
        "nouns": directory / "nouns.txt",
    }
    write_lexicon(benchmark.lexicon, paths["lexicon"])
    write_pairs(benchmark.pairs, paths["pairs"])
    write_rows(paths["lexical"], "\t", ((source, target, repr(lp)) for source in sorted(benchmark.lexical)
                                        for target, lp in sorted(benchmark.lexical[source].items())))
    with open(paths["corpus"], "w", encoding="utf-8") as handle:
        for line in benchmark.corpus:
            handle.write(" ".join(line) + "\n")
    write_testset(benchmark.testset, paths["testset"])
    write_rows(paths["pronouns"], "\t", sorted((p, g.tag) for p, g in benchmark.pronoun_table.items()))
    write_rows(paths["nouns"], "\t", ((word,) for word in benchmark.noun_words))
    return paths
