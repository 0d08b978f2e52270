"""Line counts of each module of ``src/padiclift``, split by kind, with totals.

A line is a docstring line when it lies in the string that opens a module,
class or function body, a comment line when its first non-blank character is
``#``, blank when it holds only whitespace, and code otherwise.  The code
column is the one that measures a simplification; the others do not:

    python tools/src_lines.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "padiclift"
KINDS = ("total", "code", "docstring", "comment", "blank")


def count(text: str) -> dict[str, int]:
    """{kind: lines} for one module's source; the parts add up to the total."""
    lines = text.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    out = dict.fromkeys(KINDS, 0)
    for i, line in enumerate(lines, start=1):
        kind = ("docstring" if i in doc else "blank" if not line.strip()
                else "comment" if line.lstrip().startswith("#") else "code")
        out[kind] += 1
    out["total"] = len(lines)
    return out


def table() -> dict[str, dict[str, int]]:
    """{module file name: counts} for every module, plus "TOTAL"."""
    rows = {path.name: count(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    rows["TOTAL"] = {k: sum(row[k] for row in rows.values()) for k in KINDS}
    return rows


if __name__ == "__main__":
    print(f"{'module':<14}" + "".join(f"{k:>10}" for k in KINDS))
    for name, row in table().items():
        print(f"{name:<14}" + "".join(f"{row[k]:>10}" for k in KINDS))
