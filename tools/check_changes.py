#!/usr/bin/env python3
"""Fail on a CHANGES.md entry longer than :data:`CAP` characters.

An entry is one line.  It says what changed and where its numbers are;
the numbers themselves go in the ``benchmarks/records/pr-NN.json`` record
it links.  Entries above the :data:`MARKER` line were written before the
cap and are not checked; without that line, every line is.

Run from anywhere::

    python tools/check_changes.py

Exit status 0 when every checked line is within the cap, 1 otherwise
(one line per offender, ``CHANGES.md:line: length``).
"""

from __future__ import annotations

import sys
from pathlib import Path

CHANGES = Path(__file__).resolve().parent.parent / "CHANGES.md"

#: Most characters one entry may have.
CAP = 1500
#: The line below the last entry written before the cap.
MARKER = "<!-- Entries below are capped at 1,500 characters " \
         "(tools/check_changes.py). -->"


def checked_lines(lines: list[str]) -> list[tuple[int, str]]:
    """``(line number, text)`` of each line the cap applies to."""
    start = lines.index(MARKER) + 1 if MARKER in lines else 0
    return [(number, line)
            for number, line in enumerate(lines, start=1)][start:]


def main() -> int:
    lines = CHANGES.read_text(encoding="utf-8").splitlines()
    checked = checked_lines(lines)
    offenders = [(number, len(line)) for number, line in checked
                 if len(line) > CAP]
    for number, length in offenders:
        print(f"{CHANGES.name}:{number}: {length} characters "
              f"(cap {CAP})")
    longest = max((len(line) for _, line in checked), default=0)
    print(f"{len(checked)} entries checked, longest {longest} characters, "
          f"{len(offenders)} over the cap of {CAP}")
    return 1 if offenders else 0


if __name__ == "__main__":
    sys.exit(main())
