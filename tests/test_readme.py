"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["(1, 6)", "['c', 'd']"]
    assert lines[2].split()[0] in ("c", "d")  # a kept sensor and its witness
    assert lines[3] == "True []"  # a GIS, and no sensor is removable
