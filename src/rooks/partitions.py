"""Set partitions, arc diagrams, and their bijections with triangular rooks.

A set partition of {1, ..., m} is stored in standard form: blocks ordered by
their minima, each block sorted increasingly.  Its arc diagram has one arc
per consecutive pair inside a block; reading arcs (i, j) as matrix cells in
row i and column j identifies partitions with the strictly upper triangular
(nilpotent) rooks of size m.
"""

from __future__ import annotations

from .rook import (
    Rook,
    check_rook,
    is_strictly_upper_triangular,
)

SetPartition = tuple[tuple[int, ...], ...]


def check_partition(blocks) -> SetPartition:
    """Validate blocks and return the standard form."""
    canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else 0))
    if any(not b for b in canon):
        raise ValueError("empty block")
    flat = [i for b in canon for i in b]
    m = len(flat)
    if sorted(flat) != list(range(1, m + 1)):
        raise ValueError(f"blocks must partition 1..{m} exactly")
    return canon


def size_of(partition: SetPartition) -> int:
    return sum(len(b) for b in partition)


def enum_partitions(m: int) -> list[SetPartition]:
    """All set partitions of {1, ..., m}, sorted on their standard forms."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    out: list[SetPartition] = []

    def place(i: int, blocks: list[list[int]]):
        if i > m:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(i)
            place(i + 1, blocks)
            b.pop()
        blocks.append([i])
        place(i + 1, blocks)
        blocks.pop()

    place(1, [])
    return sorted(out)


def rook_to_partition(x: Rook) -> SetPartition:
    """Read the cells of a nilpotent rook as arcs of an arc diagram."""
    if not is_strictly_upper_triangular(x):
        raise ValueError(f"{x} is not strictly upper triangular")
    m = len(x)
    next_of = {}
    for j, v in enumerate(x, start=1):
        if v:
            next_of[v] = j
    targets = set(next_of.values())
    blocks = []
    for start in range(1, m + 1):
        if start in targets:
            continue
        block = [start]
        while block[-1] in next_of:
            block.append(next_of[block[-1]])
        blocks.append(tuple(block))
    return check_partition(blocks)


def partition_to_rook(partition: SetPartition) -> Rook:
    """One cell per consecutive pair within each block."""
    partition = check_partition(partition)
    m = size_of(partition)
    x = [0] * m
    for block in partition:
        for i, j in zip(block, block[1:]):
            x[j - 1] = i
    return check_rook(x)


def partition_standard_string(partition: SetPartition) -> str:
    """Blocks joined by bars; elements run together for m <= 9 and are
    comma-separated otherwise."""
    partition = check_partition(partition)
    if size_of(partition) <= 9:
        return "|".join("".join(str(i) for i in b) for b in partition)
    return "|".join(",".join(str(i) for i in b) for b in partition)


def parse_partition(text: str) -> SetPartition:
    """Parse the output of partition_standard_string.  A text with a comma
    or with more than 9 digits is in the comma form, since elements run
    together only for m <= 9."""
    s = text.strip()
    if not s:
        raise ValueError("empty partition text")
    comma_form = "," in s or sum(c.isdigit() for c in s) > 9
    blocks = []
    for chunk in s.split("|"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty block in {text!r}")
        try:  # int() drops the spaces around a comma-separated entry
            blocks.append(tuple(map(int, chunk.split(",") if comma_form else chunk)))
        except ValueError:
            raise ValueError(f"non-integer entry in {text!r}") from None
    return check_partition(blocks)
