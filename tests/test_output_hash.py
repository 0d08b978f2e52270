"""The byte-identity gate: what the benchmark streams produce stays the same.

``tools/output_hash.py`` fingerprints every value, error, stdout and verdict
of the first ops of the ``lift``, ``factor`` and ``cli`` streams at seeds
21-23.  A change that moves the streams on purpose updates ``EXPECTED``
and says so in CHANGES.md.
"""

import importlib.util
from pathlib import Path

EXPECTED = "710f011cfb1dd669"


def load_output_hash():
    path = Path(__file__).resolve().parent.parent / "tools" / "output_hash.py"
    spec = importlib.util.spec_from_file_location("output_hash", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.output_hash


def test_benchmark_streams_keep_their_output_hash():
    assert load_output_hash()() == EXPECTED
