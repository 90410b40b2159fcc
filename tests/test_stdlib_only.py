"""The library imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfarb"


def test_library_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one within hopfarb
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "hopfarb", (path.name, name)
