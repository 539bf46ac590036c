"""The README's Python examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_python_blocks_run_in_order_in_one_namespace():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
