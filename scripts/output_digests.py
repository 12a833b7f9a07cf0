#!/usr/bin/env python3
"""Print a sha256 of every output the CSV-writing CLI subcommands make.

    python3 scripts/output_digests.py

Run from any directory; the ``sailx`` package is imported from this
checkout's ``src/``. A ``gen-demos`` corpus of 50 demos (seed 0) is written
to a temporary directory, and ``label``, ``diagnose``, ``sweep-speed``,
``sweep-gain-replay`` and ``sweep-noise`` then run in-process on it at
seed 0, each writing its CSV there. One line per output, ``<name>
<sha256>``; the corpus line digests every demo file's name and bytes, in
name order. Two checkouts whose lines are equal wrote byte-identical
outputs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sailx import cli  # noqa: E402

# each CSV subcommand's flags besides --demos, --seed and --out: enough
# rows for every lockstep caller to batch
COMMANDS = {
    "label": [],
    "diagnose": ["--trials", "24"],
    "sweep-speed": ["--trials", "2", "--method", "sail,dp-fast",
                    "--c-values", "1,0.5"],
    "sweep-gain-replay": [],
    "sweep-noise": ["--trials", "20"],
}


def _run(argv: list[str]) -> None:
    """``sailx`` with ``argv``, its printed lines dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        sys.exit(f"sailx {' '.join(argv)} exited {code}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        corpus.mkdir()
        _run(["gen-demos", "--trials", "50", "--seed", "0",
              "--out", str(corpus)])
        digest = hashlib.sha256()
        for path in sorted(corpus.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        print(f"gen-demos {digest.hexdigest()}")
        for name, flags in COMMANDS.items():
            out = Path(tmp) / f"{name}.csv"
            _run([name, "--demos", str(corpus), "--seed", "0",
                  "--out", str(out), *flags])
            print(f"{name} {hashlib.sha256(out.read_bytes()).hexdigest()}")


if __name__ == "__main__":
    main()
