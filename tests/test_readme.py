"""The README's library quickstart runs and prints what its comment says."""
from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quickstart_prints_its_documented_line(capsys):
    code = _quickstart_block()
    # The comment line right after the print call holds the expected output.
    expected = re.search(r"^print\(.*\)\n# (.*)$", code, re.MULTILINE).group(1)
    assert expected == "(1, 1, 0, 0, 1, 0) True 1 1"
    exec(compile(code, str(README), "exec"), {"__name__": "readme_quickstart"})
    assert capsys.readouterr().out == expected + "\n"
