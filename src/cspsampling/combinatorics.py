"""Small combinatorial generators shared by deciders and sample builders."""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, TypeVar

T = TypeVar("T")


def iter_set_partitions(
    items: Sequence[T], max_blocks: Optional[int] = None
) -> Iterator[list[list[T]]]:
    """All partitions of ``items`` into nonempty blocks, deterministically.

    Each item is placed into an existing block or opens a new one, in order,
    so blocks are ordered by their smallest member's position. With
    ``max_blocks``, only partitions into at most that many blocks.
    """
    items = list(items)
    if not items:
        yield []
        return

    def extend(i: int, blocks: list[list[T]]) -> Iterator[list[list[T]]]:
        if i == len(items):
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(items[i])
            yield from extend(i + 1, blocks)
            b.pop()
        if max_blocks is None or len(blocks) < max_blocks:
            blocks.append([items[i]])
            yield from extend(i + 1, blocks)
            blocks.pop()

    yield from extend(0, [])


def iter_block_labels(
    k: int, max_blocks: Optional[int] = None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each partition of the positions 0..k-1, in ``iter_set_partitions``
    order, as the block number of every position and the number of blocks."""
    for blocks in iter_set_partitions(range(k), max_blocks):
        label = [0] * k
        for b, block in enumerate(blocks):
            for i in block:
                label[i] = b
        yield tuple(label), len(blocks)


def set_partition_counts(k: int) -> list[int]:
    """``counts[b]`` is how many partitions of k items into b blocks
    ``iter_set_partitions`` yields (Stirling numbers of the second kind)."""
    counts = [1]
    for _ in range(k):
        # the next item joins one of the b blocks, or opens block b + 1
        grown = [b * c for b, c in enumerate(counts)] + [0]
        for b, c in enumerate(counts):
            grown[b + 1] += c
        counts = grown
    return counts


def iter_identifications(
    items: Sequence[T], apart: Sequence[tuple[T, T]]
) -> Iterator[tuple[list[list[T]], dict[T, T]]]:
    """Set partitions of ``items`` that keep every ``apart`` pair in two blocks.

    Yields each partition, in ``iter_set_partitions`` order, with the map
    from every item to its representative, the first member of its block.
    """
    for blocks in iter_set_partitions(items):
        rep = {v: block[0] for block in blocks for v in block}
        if not any(rep[a] == rep[b] for a, b in apart):
            yield blocks, rep


def de_bruijn_binary(n: int) -> list[int]:
    """Binary de Bruijn sequence of order n, length 2**n.

    Standard Lyndon-word concatenation: every binary word of length n
    occurs exactly once as a cyclic window. Deterministic.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    sequence: list[int] = []
    a = [0] * (2 * n)

    def generate(t: int, p: int) -> None:
        if t > n:
            if n % p == 0:
                sequence.extend(a[1 : p + 1])
        else:
            a[t] = a[t - p]
            generate(t + 1, p)
            for j in range(a[t - p] + 1, 2):
                a[t] = j
                generate(t + 1, t)

    generate(1, 1)
    return sequence
