"""Byte-identical outputs: the digests of ``scripts/output_digests.py``.

The script's commands run in-process, and every line it would print must
equal its line in ``output_digests.txt``, which holds the digests of the
outputs this program is known to write: a change that alters any corpus
or CSV byte fails here, and one that does so on purpose updates the file
and says why.
"""
from pathlib import Path

import output_digests

EXPECTED = Path(__file__).resolve().parent / "output_digests.txt"


def test_outputs_are_byte_identical():
    assert list(output_digests.digests()) == \
        EXPECTED.read_text().splitlines()
