"""Command-line front end wiring the pipeline stages together.

Every stage reads and writes plain files, so any built-in piece (the toy
translation models, the diagonal aligner, the rule-based resolver) can be
swapped for real external tools between invocations.
"""

from __future__ import annotations

import argparse
import sys
import unicodedata
from pathlib import Path

from .decode import BeamConfig, Hypothesis, NBestList, NoisyChannelToy, TableModel, beam_search, two_pass_decode
from .errors import FormatError, GenderBeamError
from .evaluation import RERANK_MODES, MetricReport, _sweep_configs, beam_sweep, run_pipeline, score_records
from .formats import (
    _nbest_runs,
    parse_alignments,
    read_entities,
    read_pronoun_table,
    read_sentences,
    read_word_list,
    read_testset,
    write_nbest,
)
from .lattice import compose_lattice, serialize_lattice
from .morpho import build_reinflection_pairs, load_lexicon, read_pairs, read_patterns, register_placeholder_patterns, write_pairs
from .rerank import AlignmentMap, NearestPrecedingNounResolver, rerank
from .synth import build_benchmark, write_benchmark


def _read_patterns(args) -> tuple:
    """The --patterns file's placeholder patterns; () without the flag."""
    return () if args.patterns is None else read_patterns(args.patterns)


def _user_labels(patterns) -> frozenset[str]:
    return frozenset(str(pattern.gender) for pattern in patterns)


def _load_lexicon(args, patterns):
    lexicon = load_lexicon(args.lexicon, user_labels=_user_labels(patterns))
    if patterns:
        lexicon = register_placeholder_patterns(lexicon, patterns)
    return lexicon


def _read_pairs(args, patterns):
    return read_pairs(args.pairs, user_labels=_user_labels(patterns))


def _load_model(args):
    if args.corpus is None:
        return TableModel.from_file(args.model)
    return NoisyChannelToy.from_files(args.model, args.corpus)


def _beam_config(args) -> BeamConfig:
    return BeamConfig(args.beam, args.nbest, args.max_len)


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True, help="exact-match score table, or with --corpus a lexical table")
    parser.add_argument("--corpus", default=None, help="target corpus file; loads a noisy-channel model")


def _add_beam_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beam", type=int, required=True, help="beam width")
    parser.add_argument("--nbest", type=int, default=None, help="list size (default: beam width)")
    parser.add_argument("--max-len", type=int, default=128, help="hypothesis length cap")


def _add_patterns_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--patterns", default=None, help="placeholder pattern file (introduces user gender labels)")


def _cmd_pairs(args) -> int:
    lexicon = _load_lexicon(args, _read_patterns(args))
    pairs = build_reinflection_pairs(lexicon)
    write_pairs(pairs, args.out)
    print(f"wrote {len(pairs.pairs)} reinflection pairs to {args.out}")
    return 0


def _cmd_lattice(args) -> int:
    patterns = _read_patterns(args)
    pairs = _read_pairs(args, patterns)
    lexicon = None if args.lexicon is None else _load_lexicon(args, patterns)
    words = unicodedata.normalize("NFC", args.hyp).split()
    lattice = compose_lattice(pairs, tuple(words), lexicon=lexicon)
    Path(args.out).write_text(serialize_lattice(lattice), encoding="utf-8")
    print(f"wrote lattice with {lattice.path_count} paths to {args.out}")
    return 0


def _cmd_decode(args) -> int:
    """Decode each sentence of --src, with a constrained second pass under
    --pairs; ids are 0-based line numbers and blank lines get no row."""
    if args.pairs is None and args.patterns is not None:
        raise ValueError("--patterns needs --pairs: decoding without a pair set reads no gender tag")
    cfg = _beam_config(args)
    model = _load_model(args)
    pairs = None if args.pairs is None else _read_pairs(args, _read_patterns(args))
    lists, blank = [], 0
    for sent_id, source in enumerate(read_sentences(args.src)):
        if not source:
            blank += 1
        elif pairs is None:
            lists.append(beam_search(model, source, cfg, source_id=sent_id))
        else:
            lists.append(two_pass_decode(model, source, pairs, cfg, cfg, source_id=sent_id))
    write_nbest(lists, args.out)
    print(f"decoded {len(lists)} sentences to {args.out}, skipped {blank} blank lines")
    return 0


def _alignment_for(alignments, path, sent_id: int, rank: int, tokens) -> AlignmentMap:
    """The alignment of one hypothesis; a missing one, or one with a link
    past the hypothesis, raises FormatError."""
    try:
        alignment = alignments[sent_id, rank]
    except KeyError:
        raise FormatError(f"{path}: no alignment for sent_id {sent_id} rank {rank}") from None
    if alignment.target_end > len(tokens):
        s, t = min(link for link in alignment if link[1] >= len(tokens))
        raise FormatError(f"{path}: sent_id {sent_id} rank {rank}: link {s}-{t} is past "
                          f"the hypothesis of {len(tokens)} tokens")
    return alignment


def _cmd_rerank(args) -> int:
    """Rerank the n-best file one run of lines at a time: a run is a stretch
    of consecutive lines with one sent_id. Only the alignment map, the
    entities, the lexicon and one pick per sent_id are held between runs, and
    the output is written after the last run."""
    alignments = parse_alignments(args.align)
    patterns = _read_patterns(args)
    entities = read_entities(args.entities, user_labels=_user_labels(patterns))
    lexicon = _load_lexicon(args, patterns)
    no_links = AlignmentMap(())
    # sent_id -> (best agreement, its earliest hypothesis, hypotheses read)
    picks: dict[int, tuple[int, Hypothesis, int]] = {}
    for sent_id, run in _nbest_runs(args.nbest, lambda field: tuple(field.split())):
        best, pick, seen = picks.get(sent_id, (-1, None, 0))
        specs = entities.get(sent_id, [])
        # with no entities every agreement score is 0, so no alignment is read
        aligns = ([_alignment_for(alignments, args.align, sent_id, seen + rank, hyp.tokens)
                   for rank, hyp in enumerate(run)] if specs
                  else [no_links] * len(run))
        result = rerank(NBestList(sent_id, run), aligns, specs, lexicon)
        # a later run has no higher loglik and later ranks, so it wins only on
        # strictly higher agreement
        agreement = result.agreement_scores[result.selected_index]
        if agreement > best:
            best, pick = agreement, result.selected_hypothesis
        picks[sent_id] = best, pick, seen + len(run)
    write_nbest([NBestList(sent_id, [pick]) for sent_id, (_, pick, _) in picks.items()], args.out)
    unlisted = len(entities.keys() - picks.keys())
    print(f"selected 1 hypothesis for each of {len(picks)} sentences to {args.out}, "
          f"skipped entities for {unlisted} sentences with no n-best list")
    return 0


_REPORT_METRICS = ("accuracy", "f1_masculine", "f1_feminine", "delta_g")


def _format_metric(value: float) -> str:
    return f"{value:.12g}"


def _write_report(report: MetricReport, path) -> None:
    lines = ["metric,value"]
    for name in _REPORT_METRICS:
        lines.append(f"{name},{_format_metric(getattr(report, name))}")
    for label, count in report.gold_counts:
        lines.append(f"gold_{label},{count}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_eval_inputs(args):
    """The test set, model, pair set (None without --pairs) and lexicon, and
    the --patterns labels their gender tags were checked against."""
    patterns = _read_patterns(args)
    labels = _user_labels(patterns)
    pairs = None if args.pairs is None else _read_pairs(args, patterns)
    return (read_testset(args.testset, user_labels=labels), _load_model(args),
            pairs, _load_lexicon(args, patterns), labels)


def _cmd_eval(args) -> int:
    inferred = args.rerank == "inferred"
    if inferred and (args.pronouns is None or args.nouns is None):
        raise ValueError("--pronouns and --nouns are required with --rerank inferred")
    if not inferred and (args.pronouns is not None or args.nouns is not None):
        raise ValueError(f"--pronouns and --nouns are read only with --rerank inferred, not {args.rerank}")
    cfg = _beam_config(args)
    testset, model, pairs, lexicon, labels = _load_eval_inputs(args)
    extra = {}
    if inferred:
        extra = {
            "pronoun_table": read_pronoun_table(args.pronouns, user_labels=labels),
            "resolver": NearestPrecedingNounResolver(read_word_list(args.nouns)),
        }
    outcomes = run_pipeline(
        testset, model, pairs, lexicon,
        constrain=pairs is not None,
        rerank_mode=args.rerank,
        cfg=cfg,
        **extra,
    )
    report = score_records([outcome.record for outcome in outcomes])
    _write_report(report, args.report)
    print(f"sentences: {len(testset)}")
    for name in _REPORT_METRICS:
        print(f"{name}: {_format_metric(getattr(report, name))}")
    return 0


def _cmd_sweep(args) -> int:
    try:
        widths = [int(field) for field in args.widths.split(",")]
    except ValueError as exc:
        raise ValueError(f"--widths: {exc}") from None
    _sweep_configs(widths, args.max_len)
    testset, model, pairs, lexicon, _ = _load_eval_inputs(args)
    rows = beam_sweep(testset, model, pairs, lexicon, widths, max_len=args.max_len)
    lines = ["beam_width,accuracy"]
    lines.extend(f"{width},{_format_metric(accuracy)}" for width, accuracy in rows)
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines[1:]:
        print(line)
    return 0


def _cmd_synth(args) -> int:
    paths = write_benchmark(build_benchmark(args.seed), Path(args.out_dir))
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genderbeam",
        description="Gendered reinflection lattices, constrained decoding, agreement reranking, and evaluation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    pairs_p = sub.add_parser("pairs", help="build reinflection pairs from a lexicon")
    pairs_p.add_argument("--lexicon", required=True)
    _add_patterns_flag(pairs_p)
    pairs_p.add_argument("--out", required=True)
    pairs_p.set_defaults(handler=_cmd_pairs)

    lattice_p = sub.add_parser("lattice", help="compose a pair set with one hypothesis")
    lattice_p.add_argument("--pairs", required=True)
    lattice_p.add_argument("--hyp", required=True, help="hypothesis sentence (quoted)")
    lattice_p.add_argument("--lexicon", default=None, help="optional, analyzes identity-arc gender")
    _add_patterns_flag(lattice_p)
    lattice_p.add_argument("--out", required=True)
    lattice_p.set_defaults(handler=_cmd_lattice)

    decode_p = sub.add_parser("decode", help="n-best decoding of a source file; two-pass with --pairs")
    _add_model_flags(decode_p)
    decode_p.add_argument("--pairs", default=None, help="pair set; searches the gendered lattice of each 1-best")
    decode_p.add_argument("--src", required=True, help="one tokenized sentence per line; ids are 0-based line numbers")
    _add_patterns_flag(decode_p)
    _add_beam_flags(decode_p)
    decode_p.add_argument("--out", required=True)
    decode_p.set_defaults(handler=_cmd_decode)

    rerank_p = sub.add_parser("rerank", help="pick the agreement-maximizing hypothesis per sentence")
    rerank_p.add_argument("--nbest", required=True)
    rerank_p.add_argument("--align", required=True)
    rerank_p.add_argument("--entities", required=True)
    rerank_p.add_argument("--lexicon", required=True)
    _add_patterns_flag(rerank_p)
    rerank_p.add_argument("--out", required=True)
    rerank_p.set_defaults(handler=_cmd_rerank)

    eval_p = sub.add_parser("eval", help="score a labelled test set end to end")
    eval_p.add_argument("--testset", required=True)
    _add_model_flags(eval_p)
    eval_p.add_argument("--pairs", default=None, help="pair set; turns on two-pass decoding")
    eval_p.add_argument("--lexicon", required=True)
    _add_patterns_flag(eval_p)
    eval_p.add_argument("--rerank", choices=RERANK_MODES, required=True)
    _add_beam_flags(eval_p)
    eval_p.add_argument("--pronouns", default=None, help="pronoun gender table; --rerank inferred only, and required there")
    eval_p.add_argument("--nouns", default=None, help="known-noun list; --rerank inferred only, and required there")
    eval_p.add_argument("--report", required=True, help="metric CSV output path")
    eval_p.set_defaults(handler=_cmd_eval)

    sweep_p = sub.add_parser("sweep", help="oracle-rerank accuracy across beam widths")
    sweep_p.add_argument("--testset", required=True)
    _add_model_flags(sweep_p)
    sweep_p.add_argument("--pairs", required=True)
    sweep_p.add_argument("--lexicon", required=True)
    _add_patterns_flag(sweep_p)
    sweep_p.add_argument("--widths", required=True, help="comma-separated ascending widths, e.g. 4,8,12,16,20")
    sweep_p.add_argument("--max-len", type=int, default=128)
    sweep_p.add_argument("--out", required=True, help="CSV output path")
    sweep_p.set_defaults(handler=_cmd_sweep)

    synth_p = sub.add_parser("synth", help="materialize the bundled synthetic benchmark")
    synth_p.add_argument("--out-dir", required=True)
    synth_p.add_argument("--seed", type=int, default=0)
    synth_p.set_defaults(handler=_cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (GenderBeamError, OSError, ValueError) as exc:
        print(f"genderbeam: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
