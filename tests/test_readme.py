"""The README's "Library use" examples run as written.

Their code blocks run in order in one namespace, in the directory of the
bundled `grades` example, which holds the `task.json` and
`submission.json` they read.
"""

import re
from pathlib import Path

import sheetcheck

README = Path(__file__).resolve().parents[1] / "README.md"
GRADES = Path(sheetcheck.__file__).resolve().parent / "data" / "grades"


def library_use_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.DOTALL | re.MULTILINE)


def test_library_use_examples_run(monkeypatch, capsys):
    blocks = library_use_blocks()
    assert len(blocks) == 2
    monkeypatch.chdir(GRADES)
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    out = capsys.readouterr().out
    assert "D3" in out and out.rstrip().endswith("}")
