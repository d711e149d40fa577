"""The benchmark's three workloads, their inputs, and the traced variants.

Each workload has an untraced pass, whose timings are the end-to-end
metrics, and a traced pass that calls the same public functions in the same
order with a span around each call, whose self times are the per-layer
metrics. Spans are recorded here, around calls into the package; nothing
inside the package is instrumented.

Every pass loads its model from the written files, so the model's step cache
starts cold, as it does on every command-line invocation.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from genderbeam import cli, synth
from genderbeam.decode import (
    BOS,
    BeamConfig,
    NBestList,
    NoisyChannelToy,
    ScoringModel,
    beam_search,
    constrained_beam_search,
)
from genderbeam.evaluation import (
    EvalRecord,
    diagonal_aligner,
    extract_predicted_gender,
    run_pipeline,
    score_records,
)
from genderbeam.formats import (
    parse_alignments,
    parse_nbest,
    read_entities,
    read_pronoun_table,
    read_testset,
    read_word_list,
    write_alignments,
    write_entities,
    write_nbest,
)
from genderbeam.lattice import compose_lattice
from genderbeam.morpho import FEMININE, load_lexicon, read_pairs
from genderbeam.rerank import (
    AlignmentMap,
    EntitySpec,
    NearestPrecedingNounResolver,
    get_entity,
    pronoun_and_gender,
    rerank,
)
from genderbeam.segment import WholeWordSegmenter

import reference

WORKLOADS = ("eval-b20", "reinflect-b64", "rerank-files")
EVAL_CFG = BeamConfig(20, 20, 16)
REINFLECT_CFG = BeamConfig(64, 64, 16)
GREEDY_CFG = BeamConfig(1, 1, 16)
LATTICE_PATHS = 64  # 2 forms for each of the 6 gendered slots of every frame
MANIFEST = "manifest.json"


# --- inputs ---------------------------------------------------------------

def make_inputs(workload: str, seed: int, directory: str) -> None:
    """Write the workload's input files for `seed` under `directory`.

    The bundled model makes the external 1-best and the variant lists once,
    untimed; the timed program only ever reads the written files. The
    manifest names the files and maps each sentence id to its reference key.
    """
    directory = Path(directory)
    bench = synth.build_benchmark(seed)
    files = {name: path.name for name, path in synth.write_benchmark(bench, directory).items()}
    if workload != "eval-b20":
        onebest = [beam_search(bench.model, s.source, GREEDY_CFG, source_id=s.sent_id)
                   for s in bench.testset]
        files["onebest"] = "onebest.nbest"
        write_nbest(onebest, directory / files["onebest"])
    if workload == "rerank-files":
        lists, alignments = [], {}
        for sentence, first in zip(bench.testset, onebest):
            lattice = compose_lattice(bench.pairs, first[0].tokens, lexicon=bench.lexicon)
            nbest = constrained_beam_search(bench.model, sentence.source, lattice, REINFLECT_CFG,
                                            source_id=sentence.sent_id)
            lists.append(nbest)
            for rank, hyp in enumerate(nbest):
                alignments[(sentence.sent_id, rank)] = AlignmentMap(
                    diagonal_aligner(sentence.source, hyp.tokens))
        files.update(variants="variants.nbest", align="variants.align", entities="entities.tsv")
        write_nbest(lists, directory / files["variants"])
        write_alignments(alignments, directory / files["align"])
        write_entities({s.sent_id: [EntitySpec(s.trigger_index, s.gold_gender, s.entity_indices)]
                        for s in bench.testset}, directory / files["entities"])
    keys = {s.sent_id: reference.sentence_key(s.source, bench.fem_ranks.get(s.sent_id, "m"))
            for s in bench.testset}
    (directory / MANIFEST).write_text(json.dumps({"files": files, "keys": keys}), encoding="utf-8")


def load_inputs(directory: str | Path) -> tuple[dict[str, Path], dict[int, str]]:
    """The input file paths by name, and the reference key of each sentence id."""
    directory = Path(directory)
    manifest = json.loads((directory / MANIFEST).read_text(encoding="utf-8"))
    paths = {name: directory / filename for name, filename in manifest["files"].items()}
    return paths, {int(sent_id): key for sent_id, key in manifest["keys"].items()}


# --- tracing --------------------------------------------------------------

class _Span:
    __slots__ = ("tracer", "name", "start", "child")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.child = 0.0
        self.tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        duration = time.perf_counter() - self.start
        tracer = self.tracer
        tracer._stack.pop()
        tracer.self_s[self.name] += duration - self.child
        tracer.calls[self.name] += 1
        if tracer._stack:
            tracer._stack[-1].child += duration


class Tracer:
    """Self time and call count per span name, plus named work counters.

    A span's self time is its duration minus the time its child spans
    cover, so self times never double count and their sum is at most the
    traced wall time.
    """

    def __init__(self) -> None:
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[_Span] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def leaf(self, name: str, seconds: float) -> None:
        """Account a span measured by the caller, with no children."""
        self.self_s[name] += seconds
        self.calls[name] += 1
        if self._stack:
            self._stack[-1].child += seconds


_NO_SPAN = contextlib.nullcontext()


def no_span(name: str) -> contextlib.nullcontext:
    return _NO_SPAN


class CountingModel(ScoringModel):
    """Delegating scorer that times and counts every model call.

    All four model entry points forward to the wrapped model, so an override
    there is never bypassed; distinct (source, last prefix token) keys are
    the steps a step cache could share.
    """

    def __init__(self, inner: ScoringModel, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.floor = inner.floor
        self.calls: Counter[str] = Counter()
        self.entries = 0
        self.steps: set[tuple] = set()

    def _timed(self, method: str, source, prefix, *args):
        self.calls[method] += 1
        self.steps.add((tuple(source), prefix[-1] if prefix else BOS))
        start = time.perf_counter()
        result = getattr(self._inner, method)(source, prefix, *args)
        self._tracer.leaf("decode.model", time.perf_counter() - start)
        return result

    def next_scores(self, source, prefix):
        scores = self._timed("next_scores", source, prefix)
        self.entries += len(scores)
        return scores

    def score_token(self, source, prefix, token):
        return self._timed("score_token", source, prefix, token)

    def eos_score(self, source, prefix):
        return self._timed("eos_score", source, prefix)

    def prepare_source(self, source):
        start = time.perf_counter()
        self._inner.prepare_source(source)
        self._tracer.leaf("decode.model", time.perf_counter() - start)


# --- passes -----------------------------------------------------------------

@dataclass
class PassResult:
    """One pass over the testset: outputs, timings and self-check inputs."""

    setup_s: float
    wall_s: float = 0.0  # timed phase only, set-up excluded
    sentence_s: list[float] = field(default_factory=list)
    records: list[EvalRecord] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    # (sent_id, n-best, selected index) while the pass runs; turned into
    # `outputs` once it is timed, so the gate's formatting is never timed
    picks: list[tuple[int, NBestList, int]] = field(default_factory=list)
    # sentence id -> canonical output text (n-best plus selection, or file line)
    outputs: dict[int, str] = field(default_factory=dict)
    output_bytes: bytes = b""
    first_agreeing: dict[int, int | None] = field(default_factory=dict)
    lattice_paths: list[int] = field(default_factory=list)
    list_sizes: list[int] = field(default_factory=list)

    def each_sentence(self, testset, work) -> None:
        """Time work(sentence) per sentence; a sentence that raises is recorded
        as failed, with no prediction, and the pass goes on."""
        for sentence in testset:
            t0 = time.perf_counter()
            try:
                work(sentence)
            except Exception as exc:  # one bad sentence must not end the run
                self.records.append(EvalRecord(sentence.sent_id, sentence.gold_gender, None))
                self.errors.append(f"sentence {sentence.sent_id}: {exc!r}")
            self.sentence_s.append(time.perf_counter() - t0)

    def freeze(self) -> "PassResult":
        self.outputs = {
            sent_id: reference.canonical_output([(h.tokens, h.loglik) for h in nbest], selected)
            for sent_id, nbest, selected in self.picks
        }
        self.picks = []
        return self


def _first_agreeing(scores) -> int | None:
    return next((rank for rank, score in enumerate(scores, 1) if score > 0), None)


def _load(paths, workload: str, tracer: Tracer | None = None) -> dict:
    """Load the workload's inputs through the public loaders."""
    span = tracer.span if tracer else no_span
    state = {}
    with span("decode.NoisyChannelToy.from_files"):
        state["model"] = NoisyChannelToy.from_files(paths["lexical"], paths["corpus"])
    with span("morpho.load_lexicon"):
        state["lexicon"] = load_lexicon(paths["lexicon"])
    with span("morpho.read_pairs"):
        state["pairs"] = read_pairs(paths["pairs"])
    with span("formats.read_testset"):
        state["testset"] = read_testset(paths["testset"])
    lines = len(state["testset"])
    if workload == "reinflect-b64":
        with span("formats.parse_nbest"):
            state["onebest"] = parse_nbest(paths["onebest"])
        lines += len(state["onebest"])
        state["pronouns"] = read_pronoun_table(paths["pronouns"])
        state["resolver"] = NearestPrecedingNounResolver(read_word_list(paths["nouns"]))
    if tracer:
        tracer.counts["formats.lines_read"] += lines
    return state


def eval_pass(paths) -> PassResult:
    """eval-b20 untraced: `run_pipeline` one sentence at a time."""
    start = time.perf_counter()
    state = _load(paths, "eval-b20")
    result = PassResult(time.perf_counter() - start)
    model, pairs, lexicon = state["model"], state["pairs"], state["lexicon"]

    def work(sentence):
        (outcome,) = run_pipeline([sentence], model, pairs, lexicon, constrain=True,
                                  rerank_mode="oracle", cfg=EVAL_CFG)
        result.records.append(outcome.record)
        result.picks.append((sentence.sent_id, outcome.nbest, outcome.selected_index))

    begin = time.perf_counter()
    result.each_sentence(state["testset"], work)
    result.wall_s = time.perf_counter() - begin
    return result.freeze()


def eval_traced(paths, tracer: Tracer) -> PassResult:
    """eval-b20 traced: the calls of `run_pipeline` and `two_pass_decode`, in order."""
    span = tracer.span
    start = time.perf_counter()
    state = _load(paths, "eval-b20", tracer)
    result = PassResult(time.perf_counter() - start)
    model = CountingModel(state["model"], tracer)
    pairs, lexicon = state["pairs"], state["lexicon"]
    segmenter = WholeWordSegmenter()

    def work(sentence):
        before = model.entries
        with span("decode.beam_search"):
            first = beam_search(model, sentence.source, EVAL_CFG, source_id=sentence.sent_id)
        tracer.counts["decode.beam_search.candidates"] += model.entries - before
        words = segmenter.words(first[0].tokens)
        with span("lattice.compose_lattice"):
            lattice = compose_lattice(pairs, words, segmenter=segmenter, lexicon=lexicon)
        tracer.counts["lattice.paths"] += lattice.path_count
        with span("decode.constrained_beam_search"):
            nbest = constrained_beam_search(model, sentence.source, lattice, EVAL_CFG,
                                            source_id=sentence.sent_id)
        entities = [EntitySpec(sentence.trigger_index, sentence.gold_gender,
                               sentence.entity_indices)]
        _select(result, tracer, sentence, nbest, entities, lexicon)

    begin = time.perf_counter()
    result.each_sentence(state["testset"], work)
    _finish_traced(result, tracer, model, begin)
    return result.freeze()


def _select(result: PassResult, tracer, sentence, nbest, entities, lexicon) -> None:
    """Align, rerank and extract, as `run_pipeline` does after decoding."""
    span = tracer.span if tracer else no_span
    with span("evaluation.align"):
        alignments = [AlignmentMap(diagonal_aligner(sentence.source, hyp.tokens)) for hyp in nbest]
    with span("rerank.rerank"):
        reranked = rerank(nbest, alignments, entities, lexicon)
    selected = reranked.selected_index
    with span("evaluation.extract_predicted_gender"):
        predicted = extract_predicted_gender(nbest[selected].tokens, alignments[selected],
                                             sentence.entity_indices, lexicon)
    result.records.append(EvalRecord(sentence.sent_id, sentence.gold_gender, predicted))
    result.picks.append((sentence.sent_id, nbest, selected))
    if tracer:
        tracer.counts["evaluation.align.hypotheses"] += len(nbest)
        tracer.counts["rerank.rerank.hypotheses"] += len(nbest)
        tracer.counts["rerank.changed"] += selected != 0
        if sentence.gold_gender == FEMININE:
            result.first_agreeing[sentence.sent_id] = _first_agreeing(reranked.agreement_scores)
        result.list_sizes.append(len(nbest))


def _finish_traced(result: PassResult, tracer: Tracer, model: CountingModel, begin: float) -> None:
    with tracer.span("evaluation.score_records"):
        score_records(result.records)
    result.wall_s = time.perf_counter() - begin
    for method, calls in model.calls.items():
        tracer.counts[f"decode.model.{method}.calls"] += calls
    tracer.counts["decode.model.distinct_steps"] += len(model.steps)


def reinflect_pass(paths, tracer: Tracer | None = None) -> PassResult:
    """reinflect-b64: lattice of the external 1-best, exhaustive constrained
    search, inferred entities, rerank and extraction, sentence by sentence."""
    span = tracer.span if tracer else no_span
    start = time.perf_counter()
    state = _load(paths, "reinflect-b64", tracer)
    result = PassResult(time.perf_counter() - start)
    model = CountingModel(state["model"], tracer) if tracer else state["model"]
    pairs, lexicon, onebest = state["pairs"], state["lexicon"], state["onebest"]
    pronouns, resolver = state["pronouns"], state["resolver"]

    def work(sentence):
        with span("lattice.compose_lattice"):
            lattice = compose_lattice(pairs, onebest[sentence.sent_id][0].tokens, lexicon=lexicon)
        with span("decode.constrained_beam_search"):
            nbest = constrained_beam_search(model, sentence.source, lattice, REINFLECT_CFG,
                                            source_id=sentence.sent_id)
        with span("rerank.get_entity"):
            entities = []
            for index, gender in pronoun_and_gender(sentence.source, pronouns):
                indices = get_entity(sentence.source, index, resolver)
                if indices:
                    entities.append(EntitySpec(index, gender, indices))
        _select(result, tracer, sentence, nbest, entities, lexicon)
        if tracer:
            result.lattice_paths.append(lattice.path_count)

    begin = time.perf_counter()
    result.each_sentence(state["testset"], work)
    if tracer:
        tracer.counts["lattice.paths"] += sum(result.lattice_paths)
        _finish_traced(result, tracer, model, begin)
    else:
        result.wall_s = time.perf_counter() - begin
    return result.freeze()


def _scoring_inputs(paths):
    return read_testset(paths["testset"]), load_lexicon(paths["lexicon"])


def rerank_files_pass(paths, out: Path) -> PassResult:
    """rerank-files untraced: the `rerank` subcommand, in-process.

    The command handles the whole file in one call, so each sentence's time
    is the call's time over its sentence count. Set-up loads the testset and
    lexicon that score the selected file.
    """
    start = time.perf_counter()
    testset, lexicon = _scoring_inputs(paths)
    result = PassResult(time.perf_counter() - start)
    argv = ["rerank", "--nbest", str(paths["variants"]), "--align", str(paths["align"]),
            "--entities", str(paths["entities"]), "--lexicon", str(paths["lexicon"]),
            "--out", str(out)]
    out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        begin = time.perf_counter()
        try:
            status = cli.main(argv)
        except Exception as exc:  # a crash fails every sentence, it does not end the run
            status = repr(exc)
        result.wall_s = time.perf_counter() - begin
    if status != 0:
        result.errors.append(f"rerank command failed: {status}")
    result.sentence_s.append(result.wall_s / len(testset))
    _read_selection(result, out, testset, lexicon)
    return result


def rerank_files_traced(paths, out: Path, tracer: Tracer) -> PassResult:
    """rerank-files traced: the calls of the CLI's rerank command, in order."""
    span = tracer.span
    testset, scoring_lexicon = _scoring_inputs(paths)
    begin = time.perf_counter()
    with span("formats.parse_nbest"):
        lists = parse_nbest(paths["variants"])
    with span("formats.parse_alignments"):
        alignments = parse_alignments(paths["align"])
    with span("formats.read_entities"):
        entities = read_entities(paths["entities"])
    with span("morpho.load_lexicon"):
        lexicon = load_lexicon(paths["lexicon"], user_labels=frozenset())
    tracer.counts["formats.lines_read"] += (sum(map(len, lists.values())) + len(alignments)
                                            + sum(map(len, entities.values())))
    empty = AlignmentMap(())
    selected: dict[int, NBestList] = {}
    for sent_id in sorted(lists):
        nbest = lists[sent_id]
        specs = entities.get(sent_id, [])
        if not specs:
            selected[sent_id] = NBestList(sent_id, [nbest[0]])
            continue
        aligns = [alignments.get((sent_id, rank), empty) for rank in range(len(nbest))]
        with span("rerank.rerank"):
            reranked = rerank(nbest, aligns, specs, lexicon)
        selected[sent_id] = NBestList(sent_id, [reranked.selected_hypothesis])
        tracer.counts["rerank.rerank.hypotheses"] += len(nbest)
        tracer.counts["rerank.changed"] += reranked.selected_index != 0
    with span("formats.write_nbest"):
        write_nbest(selected.values(), out)
    result = PassResult(0.0, time.perf_counter() - begin)
    result.sentence_s.append(result.wall_s / len(testset))
    _read_selection(result, out, testset, scoring_lexicon)
    return result


def _read_selection(result: PassResult, out: Path, testset, lexicon) -> None:
    """Score the selected file: each picked line, with its diagonal alignment."""
    result.output_bytes = out.read_bytes() if out.exists() else b""
    for line in result.output_bytes.decode("utf-8", errors="replace").splitlines():
        sent_id, _, rest = line.partition(" ||| ")
        if sent_id.isdigit():
            result.outputs[int(sent_id)] = rest
    for sentence in testset:
        predicted = None
        if sentence.sent_id in result.outputs:
            tokens = result.outputs[sentence.sent_id].rpartition(" ||| ")[0].split()
            alignment = AlignmentMap(diagonal_aligner(sentence.source, tokens))
            predicted = extract_predicted_gender(tokens, alignment, sentence.entity_indices, lexicon)
        result.records.append(EvalRecord(sentence.sent_id, sentence.gold_gender, predicted))


def accuracy(result: PassResult) -> float:
    return score_records(result.records).accuracy
