import itertools

import pytest

from cspsampling.combinatorics import de_bruijn_binary, iter_set_partitions


def bell(n):
    # independent count via the triangle recurrence
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_partition_counts_match_bell_numbers(n):
    items = list(range(n))
    partitions = list(iter_set_partitions(items))
    assert len(partitions) == bell(n)
    seen = set()
    for blocks in partitions:
        flat = sorted(x for b in blocks for x in b)
        assert flat == items  # a partition covers every item exactly once
        key = tuple(tuple(sorted(b)) for b in sorted(blocks, key=min))
        assert key not in seen
        seen.add(key)


def test_partitions_are_deterministic():
    a = [tuple(map(tuple, p)) for p in iter_set_partitions("abc")]
    b = [tuple(map(tuple, p)) for p in iter_set_partitions("abc")]
    assert a == b


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_de_bruijn_windows_cover_all_words(n):
    seq = de_bruijn_binary(n)
    assert len(seq) == 2**n
    windows = {
        tuple(seq[(i + j) % len(seq)] for j in range(n))
        for i in range(len(seq))
    }
    assert windows == set(itertools.product((0, 1), repeat=n))


def test_de_bruijn_rejects_zero_order():
    with pytest.raises(ValueError):
        de_bruijn_binary(0)


def test_iter_identifications_filters_partitions_and_names_representatives():
    from cspsampling.combinatorics import iter_identifications

    patterns = list(iter_identifications("abc", [("a", "b")]))
    assert len(patterns) == 3  # Bell(3) = 5, minus the two that merge a and b
    for blocks, rep in patterns:
        assert rep["a"] != rep["b"]
        assert all(rep[v] == block[0] for block in blocks for v in block)
    assert [p[0] for p in iter_identifications("ab", [])] == list(
        iter_set_partitions("ab")
    )
