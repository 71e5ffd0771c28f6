"""Every check in the package survives ``python -O``, which strips asserts."""

import ast
from pathlib import Path

import qregen


def test_no_assert_statement_in_package():
    sources = sorted(Path(qregen.__file__).parent.glob("*.py"))
    assert len(sources) > 10  # the package itself, not an empty directory
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements vanish under python -O: {found}"
