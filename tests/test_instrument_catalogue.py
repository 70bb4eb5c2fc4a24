"""The DESIGN §12 instrument catalogue matches what the program emits."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
KINDS = ("counter", "gauge", "histogram")


def emitted():
    """``{(name, kind, labels, module)}`` over every instrument call in src."""
    found = set()
    for path in sorted(SOURCE.rglob("*.py")):
        module = ".".join(path.relative_to(SOURCE.parent).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in KINDS
            ):
                continue
            where = f"{module}:{node.lineno}"
            assert node.args, f"{where}: instrument call without a name"
            name = node.args[0]
            assert isinstance(name, ast.Constant) and isinstance(
                name.value, str
            ), f"{where}: instrument name is not a string literal"
            keys = [kw.arg for kw in node.keywords]
            assert None not in keys, f"{where}: labels passed as **kwargs"
            labels = frozenset(key for key in keys if key != "buckets")
            found.add((name.value, node.func.attr, labels, module))
    return found


def catalogued():
    """``{(name, kind, labels, module)}`` from the DESIGN §12 table."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text[text.index("**Instrument catalogue.**"):]
    rows = set()
    for line in section.splitlines()[1:]:
        if rows and not line.startswith("|"):
            break
        if not line.startswith("| `"):
            continue
        name, kind, labels, module, _registry = (
            cell.strip() for cell in line.strip("|").split("|")
        )
        keys = frozenset(
            label.strip().strip("`") for label in labels.split(",")
            if label.strip() != "—"
        )
        rows.add((name.strip("`"), kind, keys, module.strip("`")))
    return rows


def test_catalogue_matches_emitted_instruments():
    code, table = emitted(), catalogued()
    assert not code - table, f"emitted but not in DESIGN §12: {sorted(code - table)}"
    assert not table - code, f"in DESIGN §12 but never emitted: {sorted(table - code)}"
