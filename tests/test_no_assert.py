"""Package-wide properties: every check survives ``python -O``, which strips
asserts, and ``import qregen`` loads none of its modules."""

import ast
import os
import subprocess
import sys
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


def test_importing_the_package_loads_no_module_of_it():
    # every name is imported from its module; the package itself is its docstring
    src = Path(qregen.__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, qregen; print(sorted(m for m in sys.modules if m.startswith('qregen.')))"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")
