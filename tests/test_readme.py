"""README's Python examples must run as written: its fenced ``python``
blocks are executed in order, in one namespace, against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["outcome"].introspection.scores["CHSH_score"] > 2.2
    assert namespace["check"].passed
