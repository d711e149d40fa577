"""The README's Python API example runs as printed, and its shell commands
parse as the command line defines them."""

import contextlib
import io
import shlex
from pathlib import Path

from genderbeam.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def shell_commands() -> list[list[str]]:
    """The argv of every `genderbeam` command in the README's sh blocks, its
    continuation lines joined."""
    blocks = [block.split("```", 1)[0] for block in README.read_text(encoding="utf-8").split("```sh\n")[1:]]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("genderbeam ")]


def test_shell_commands_parse():
    commands = shell_commands()
    assert [argv[0] for argv in commands] == [
        "synth", "pairs", "lattice", "decode", "decode", "rerank", "eval", "sweep"]
    for argv in commands:
        build_parser().parse_args(argv)  # a bad argv exits through SystemExit


def test_python_api_example_prints_four_variants_best_first():
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    rows = [line.split(" ", 1) for line in out.getvalue().splitlines()]
    assert sorted(variant for _, variant in rows) == [
        "el médica", "el médico", "la médica", "la médico",
    ]
    logliks = [float(loglik) for loglik, _ in rows]
    assert logliks == sorted(logliks, reverse=True)
    assert rows[0][1] == "el médico"
