"""Gendered reinflection lattices, constrained beam search, and agreement reranking.

The pipeline: build word-level reinflection pairs from a gender lexicon,
compose them with a 1-best translation into a hypothesis lattice, run
constrained beam search over the lattice to get an n-best list of gendered
variants, then pick the variant whose gendered words agree with the entities
required by the source sentence. Evaluation utilities score gender accuracy
and the masculine/feminine F1 gap on labelled test sets.

The package root exports the names of the README's Python API example;
everything else is imported from its submodule, e.g. genderbeam.evaluation
or genderbeam.formats.
"""

from .decode import BeamConfig, TableModel, two_pass_decode
from .morpho import FEMININE, MASCULINE, GenderLexicon, LexiconEntry, build_reinflection_pairs

__version__ = "0.1.0"

__all__ = [
    "FEMININE",
    "MASCULINE",
    "BeamConfig",
    "GenderLexicon",
    "LexiconEntry",
    "TableModel",
    "build_reinflection_pairs",
    "two_pass_decode",
]
