"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block(heading):
    """The first python code block under a level-two README heading."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_entry_points_run(capsys):
    code = compile(python_block("Library entry points"), str(README), "exec")
    namespace = {}
    exec(code, namespace)
    assert namespace["sup"] < 1e-12 and namespace["sup_q"] < 1e-12
    trace = namespace["trace"]
    assert capsys.readouterr().out == f"{trace.status} {len(trace.records)}\n"
