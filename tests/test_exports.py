"""The package's public names."""

import ast
import re
from pathlib import Path

import poisson_bm

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "poisson_bm"


def test_every_exported_name_resolves():
    # a stale entry would only surface on ``from poisson_bm import *``
    missing = [name for name in poisson_bm.__all__ if not hasattr(poisson_bm, name)]
    assert not missing


def _names_in_code(source: str) -> set[str]:
    """Names, attributes and imported names in ``source``; docstrings do not count."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_exported_name_has_a_caller_outside_the_tests():
    # a run, the README, a tool or the benchmark must use each public name;
    # one only the tests call is API to delete, not to keep
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _names_in_code(path.read_text(encoding="utf-8"))
    texts = [ROOT / "README.md", *ROOT.glob("tools/*.py"), *ROOT.glob("perfbench/*.py")]
    for path in texts:
        used |= set(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    unused = [name for name in poisson_bm.__all__
              if not name.startswith("__") and name not in used]
    assert not unused
