"""The README's Python API example runs as printed."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


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
