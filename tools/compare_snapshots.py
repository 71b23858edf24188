"""Compare two `tools/snapshot_outputs.py` trees number by number.

Usage: python3 tools/compare_snapshots.py OLD NEW

For every file whose bytes differ between the trees, prints its largest
relative difference between corresponding numbers, |a - b| / max(|a|, |b|),
and every difference that is not numeric: a line whose text around the
numbers changed, a line only one side has, or a file only one side has.
The numbers are the float literals, those with a decimal point or an
exponent; integers count as text, so a changed count, or a changed name
such as ``club=Club 13``, is printed as a difference.  Numbers are compared
line by line, in order, on lines whose text around them is the same.  The
last lines give the largest relative difference of each output kind (file
name) over the whole tree.  Exits 0 when the trees
hold the same bytes, else 1.
"""
from __future__ import annotations

import difflib
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][-+]?\d+)?")


def relative(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def compare_text(old: str, new: str) -> tuple[tuple[float, str, str], list[str]]:
    """The largest relative difference between the numbers of `old` and
    `new` with the two numbers, and their non-numeric differences as
    ``-``/``+`` lines."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    old_shape = [NUMBER.sub("#", line) for line in old_lines]
    new_shape = [NUMBER.sub("#", line) for line in new_lines]
    # Lines of the same text around their numbers, from either end, pair up
    # as they are; only the rest is aligned by difflib, which is quadratic
    # on long runs of alike lines such as a CSV's.
    short = min(len(old_shape), len(new_shape))
    head = 0
    while head < short and old_shape[head] == new_shape[head]:
        head += 1
    tail = 0
    while tail < short - head and old_shape[-1 - tail] == new_shape[-1 - tail]:
        tail += 1
    pairs = [*zip(old_lines[:head], new_lines[:head]),
             *zip(old_lines[len(old_lines) - tail:], new_lines[len(new_lines) - tail:])]
    other: list[str] = []
    middle = difflib.SequenceMatcher(None, old_shape[head:len(old_shape) - tail],
                                     new_shape[head:len(new_shape) - tail], autojunk=False)
    for tag, i1, i2, j1, j2 in middle.get_opcodes():
        a, b = old_lines[head + i1:head + i2], new_lines[head + j1:head + j2]
        if tag == "equal":
            pairs += zip(a, b)
        else:
            other += [f"- {line}" for line in a] + [f"+ {line}" for line in b]
    largest = max(((relative(float(x), float(y)), x, y) for a, b in pairs
                   for x, y in zip(NUMBER.findall(a), NUMBER.findall(b))), default=(0.0, "", ""))
    return largest, other


def compare_trees(old: Path, new: Path) -> list[str]:
    """The report lines; empty when the trees hold the same bytes."""
    files = sorted({p.relative_to(root) for root in (old, new) for p in root.rglob("*")
                    if p.is_file()})
    lines: list[str] = []
    by_kind: dict[str, float] = {}
    for rel in files:
        a, b = old / rel, new / rel
        if not (a.is_file() and b.is_file()):
            lines.append(f"{rel}: only in {old if a.is_file() else new}")
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        (largest, x, y), other = compare_text(a.read_text(encoding="utf-8", errors="replace"),
                                              b.read_text(encoding="utf-8", errors="replace"))
        by_kind[rel.name] = max(by_kind.get(rel.name, 0.0), largest)
        pair = f" ({x} against {y})" if largest else ""
        lines.append(f"{rel}: largest relative difference {largest:.3g}{pair}")
        lines += [f"    {line}" for line in other]
    lines += [f"{kind}: largest relative difference {value:.3g} over the tree"
              for kind, value in sorted(by_kind.items())]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    lines = compare_trees(Path(argv[0]), Path(argv[1]))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
