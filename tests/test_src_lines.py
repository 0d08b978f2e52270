"""``tools/src_lines.py``: the per-module line counts of ``src/padiclift`` that
simplifications report, split into code, docstring, comment and blank lines."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_module_splits_into_its_line_count():
    src_lines = load_src_lines()
    rows = src_lines.table()
    parts = ("code", "docstring", "comment", "blank")
    for name, row in rows.items():
        if name != "TOTAL":
            text = (src_lines.SRC / name).read_text()
            assert row["total"] == len(text.splitlines()) == sum(row[k] for k in parts), name
    assert rows["TOTAL"]["total"] == sum(r["total"] for n, r in rows.items() if n != "TOTAL")
    assert set(rows) - {"TOTAL"} == {path.name for path in src_lines.SRC.glob("*.py")}


def test_line_kinds():
    text = '"""Module\ndoc."""\n\n# note\nx = 1  # trailing\n\n\ndef f():\n    """One."""\n    return x\n'
    assert load_src_lines().count(text) == {"total": 10, "code": 3, "docstring": 3,
                                           "comment": 1, "blank": 3}
