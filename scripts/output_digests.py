#!/usr/bin/env python3
"""Print a sha256 of every output the CSV-writing CLI subcommands make.

    python3 scripts/output_digests.py

Run from any directory; the ``sailx`` package is imported from this
checkout's ``src/``. A ``gen-demos`` corpus of 50 demos (seed 0) is written
to a temporary directory, and ``label``, ``diagnose``, ``sweep-speed``,
``sweep-gain-replay`` and ``sweep-noise`` then run in-process on it at
seed 0, each writing its CSV there (``sweep-speed`` three times:
closed-loop rows, replay and dp rows, and the closed-loop rows again on
two worker processes). One line per output, ``<name> <sha256>``;
the corpus line digests every demo file's name and bytes, in name order.
Two checkouts whose lines are equal wrote byte-identical outputs.
``tests/output_digests.txt`` holds the lines this program must print, and
``tests/test_output_digests.py`` compares them in tier-1.
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

# each output's CSV subcommand and its flags besides --demos, --seed and
# --out: enough rows for every lockstep caller to batch
COMMANDS = {
    "label": ["label"],
    "diagnose": ["diagnose", "--trials", "24"],
    "sweep-speed": ["sweep-speed", "--trials", "2", "--method",
                    "sail,dp-fast", "--c-values", "1,0.5"],
    "sweep-gain-replay": ["sweep-gain-replay"],
    "sweep-noise": ["sweep-noise", "--trials", "20"],
    # 8 replays, batched with 8 dp rollouts
    "sweep-speed-replay": ["sweep-speed", "--trials", "4", "--method",
                           "replay,dp", "--c-values", "1,0.2"],
    # sweep-speed's rollouts in two worker processes: the same bytes
    "sweep-speed-jobs": ["sweep-speed", "--trials", "2", "--method",
                         "sail,dp-fast", "--c-values", "1,0.5", "--jobs",
                         "2"],
}


def _run(argv: list[str]) -> None:
    """``sailx`` with ``argv``, its printed lines dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        sys.exit(f"sailx {' '.join(argv)} exited {code}")


def digests():
    """Yield the ``<name> <sha256>`` line of each output, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        corpus.mkdir()
        _run(["gen-demos", "--trials", "50", "--seed", "0",
              "--out", str(corpus)])
        digest = hashlib.sha256()
        for path in sorted(corpus.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        yield f"gen-demos {digest.hexdigest()}"
        for name, (command, *flags) in COMMANDS.items():
            out = Path(tmp) / f"{name}.csv"
            _run([command, "--demos", str(corpus), "--seed", "0",
                  "--out", str(out), *flags])
            yield f"{name} {hashlib.sha256(out.read_bytes()).hexdigest()}"


def main() -> None:
    for line in digests():
        print(line)


if __name__ == "__main__":
    main()
