import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hecke5"


def test_no_assert_statements():
    # `python -O` strips assert statements, so invariants the results
    # depend on must be explicit raises
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
