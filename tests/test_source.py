"""Source-level rules for the library modules."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "thetatool"


def test_no_bare_assert_in_library():
    """`assert` vanishes under `python -O`; checks must raise typed errors."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"bare assert in {', '.join(found)}"
