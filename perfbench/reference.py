"""Reference outputs for the output gate, and the script that records them.

A sentence's output depends on its frame (the source without the profession
word) and on the rank the seed assigned its profession, never on which
profession it is. References are therefore keyed by (frame, rank), which
covers every seed. For eval-b20 and reinflect-b64 a reference is the sha256
of the sentence's n-best tokens, `repr` log likelihoods and selected index;
for rerank-files it is the selected line of the output file.

Run `python3 perfbench/reference.py` from the repository root to re-record
reference.json from the current source tree; it walks seeds from 0 until
every key has been seen, and fails if two seeds disagree on a key.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def sentence_key(source, rank) -> str:
    """Reference key: the source minus its profession word, and the rank
    the seed gave that profession (`m` for masculine rows, `floor` for rows
    whose feminine form only scores the model floor)."""
    rank = "floor" if rank is None else str(rank)
    return f"{' '.join(source[1:])}|{rank}"


def canonical_output(hypotheses, selected: int) -> str:
    lines = [f"{' '.join(tokens)} ||| {loglik!r}" for tokens, loglik in hypotheses]
    lines.append(f"selected {selected}")
    return "\n".join(lines) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def failed_sentences(workload: str, refs: dict, keys: dict[int, str], result) -> set[int]:
    """Sentence ids whose output differs from the reference, or is missing."""
    table = refs[workload]
    failed = set()
    for sent_id, key in keys.items():
        output = result.outputs.get(sent_id)
        if output is not None and workload != "rerank-files":
            output = digest(output)
        if output is None or output != table.get(key):
            failed.add(sent_id)
    if workload == "rerank-files" and not failed:
        want = "".join(f"{sent_id} ||| {table[keys[sent_id]]}\n" for sent_id in sorted(keys))
        if result.output_bytes != want.encode("utf-8"):
            failed = set(keys)  # right lines, wrong file: every sentence is suspect
    return failed


def record(max_seeds: int = 64) -> dict:
    import shutil
    import tempfile

    import workloads
    from genderbeam.synth import FEM_RANK_COUNTS, FRAME_CLASSES

    # each frame class has a masculine row, one row per feminine rank, a floor row
    wanted = len(FRAME_CLASSES) * (len(FEM_RANK_COUNTS) + 2)
    refs: dict[str, dict[str, str]] = {name: {} for name in workloads.WORKLOADS}
    seeds = []
    scratch = Path(__file__).resolve().parent.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    for seed in range(max_seeds):
        directory = Path(tempfile.mkdtemp(prefix="record-", dir=scratch))
        try:
            workloads.make_inputs("rerank-files", seed, str(directory))
            paths, keys = workloads.load_inputs(directory)
            results = {
                "eval-b20": workloads.eval_pass(paths),
                "reinflect-b64": workloads.reinflect_pass(paths),
                "rerank-files": workloads.rerank_files_pass(paths, directory / "selected.nbest"),
            }
        finally:
            shutil.rmtree(directory)
        for name, result in results.items():
            if result.errors:
                raise SystemExit(f"{name}: seed {seed}: {result.errors[0]}")
            for sent_id, output in result.outputs.items():
                value = output if name == "rerank-files" else digest(output)
                known = refs[name].setdefault(keys[sent_id], value)
                if known != value:
                    raise SystemExit(f"{name}: seed {seed} disagrees on key {keys[sent_id]!r}")
        seeds.append(seed)
        if all(len(table) == wanted for table in refs.values()):
            break
    else:
        raise SystemExit(f"keys not covered after {max_seeds} seeds")
    return {"seeds": seeds, **{name: dict(sorted(t.items())) for name, t in refs.items()}}


if __name__ == "__main__":
    import sys

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    refs = record()
    REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {sum(len(v) for k, v in refs.items() if k != 'seeds')} references "
          f"from seeds {refs['seeds'][0]}..{refs['seeds'][-1]} to {REFERENCE_PATH}")
