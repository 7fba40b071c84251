"""The README's Python examples run as written, so the names the package
root exports stay the ones the README documents."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    # Later blocks use names the earlier ones import.
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert "Summary(" in capsys.readouterr().out
