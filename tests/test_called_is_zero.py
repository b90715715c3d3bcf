"""Every ``.is_zero`` read in the package and its tests is a call.

``is_zero`` is a method on modules and polynomials. A bound method is
always truthy, so ``assert h.is_zero`` without parentheses passes on any
module; this scan rejects such reads.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _uncalled_is_zero(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    called = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "is_zero"
                and id(node) not in called):
            yield node.lineno


def test_every_is_zero_read_is_called():
    sources = sorted((ROOT / "src" / "frobcheck").glob("*.py")) + \
        sorted((ROOT / "tests").glob("*.py"))
    assert sources
    uncalled = [f"{path.relative_to(ROOT)}:{line}"
                for path in sources for line in _uncalled_is_zero(path)]
    assert not uncalled, uncalled
