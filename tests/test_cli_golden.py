"""Replay the recorded CLI requests in tests/golden_cli.json.

Each record holds an argv and the exit code, stdout and stderr that
``padiclift`` gave for it; every field must match byte for byte, so a
change that moves any output of any subcommand shows here.
"""

import json
from pathlib import Path

import pytest

from padiclift.cli import main

GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())


@pytest.mark.parametrize("record", GOLDEN,
                         ids=[" ".join(r["argv"]) or "(no arguments)" for r in GOLDEN])
def test_cli_output_is_byte_identical(record, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to this width
    rc = main(list(record["argv"]))
    out = capsys.readouterr()
    assert (rc, out.out, out.err) == (record["exit"], record["stdout"], record["stderr"])
