import pytest

from charfield.errors import BudgetExceededError, InputError
from charfield.partitions import component_orders, eps_stats
from charfield.symbols import (
    ENTRY_CAP,
    Symbol,
    cuspidal_multiplicity,
    special_symbol,
    wavefront_partition,
)


def test_symbol_invariants():
    with pytest.raises(InputError):
        Symbol((1, 1), (0,))
    with pytest.raises(InputError):
        Symbol((-1,), ())
    s = Symbol((0, 2), (1,))
    assert s.defect == 1
    # rows given as lists are stored as tuples, so the symbol hashes
    s = Symbol([0, 1], [1])
    assert (s.top, s.bottom) == ((0, 1), (1,)) and hash(s) == hash(Symbol((0, 1), (1,)))


def test_special_symbol_displays():
    s = special_symbol(1, 1)
    assert s.top == (0, 1) and s.bottom == (1,)
    s = special_symbol(2, 0)
    assert s.top == (1, 2) and s.bottom == (0, 1)
    s = special_symbol(0, 1)
    assert s.top == (0,) and s.bottom == ()
    with pytest.raises(InputError):
        special_symbol(0, 0)
    with pytest.raises(InputError):
        special_symbol(-1, 1)


def test_special_symbol_ranks():
    for e in range(11):
        assert special_symbol(e, 1).rank == e * (e + 1)
    for e in range(1, 11):
        assert special_symbol(e, 0).rank == e * e


def test_entry_cap():
    # 2e + delta entries in a symbol, 2 max(e, f) + delta parts in a
    # wave-front partition: listed up to the cap, refused one past it
    half = ENTRY_CAP // 2
    s = special_symbol(half, 0)
    assert len(s.top) + len(s.bottom) == ENTRY_CAP
    assert len(wavefront_partition(3, half, 0).partition) == ENTRY_CAP
    for build in (lambda: special_symbol(half, 1), lambda: wavefront_partition(3, half, 1),
                  lambda: wavefront_partition(half, 3, 1), lambda: special_symbol(10**9, 0),
                  lambda: wavefront_partition(10**9, 10**9, 1)):
        with pytest.raises(BudgetExceededError):
            build()


def test_cuspidal_multiplicity_cap():
    # the datum's wave-front partition has 2f + delta parts, and the
    # multiplicity takes the same cap: computed up to it, refused one past it
    half = ENTRY_CAP // 2
    assert cuspidal_multiplicity(0, half, 0) == 2 ** (half - 1)
    assert cuspidal_multiplicity(half - 1, 0, 1) == 2 ** (half - 1)
    for e, f, delta in ((0, half + 1, 0), (0, half, 1), (10**8, 10**8, 1)):
        with pytest.raises(BudgetExceededError):
            cuspidal_multiplicity(e, f, delta)


def _symbol_wavefront(e, f, delta):
    """Independent reference: the Jordan type read off the class symbol.

    The class symbol is the smaller special symbol raised by the staircase
    0, 2, 4, ..., shifted f - e times (prepend 0, add 2), plus the larger
    special symbol entrywise.  Its extraction doubles one row
    and doubles-plus-one the other (the odd row is the top row for defect 1,
    the bottom row for defect 0), merges, subtracts the interleaved staircase
    0, 1, 4, 5, 8, 9, ... (and 4m at defect 1) and reverses.
    """
    e, f = min(e, f), max(e, f)

    def rows(m):
        if delta == 0 and m == 0:
            return (), ()
        s = special_symbol(m, delta)
        return s.top, s.bottom

    top, bottom = rows(e)
    top = [x + 2 * i for i, x in enumerate(top)]
    bottom = [x + 2 * i for i, x in enumerate(bottom)]
    for _ in range(f - e):
        top = [0] + [x + 2 for x in top]
        bottom = [0] + [x + 2 for x in bottom]
    big_top, big_bottom = rows(f)
    assert len(top) == len(big_top) and len(bottom) == len(big_bottom)
    top = [x + y for x, y in zip(top, big_top)]
    bottom = [x + y for x, y in zip(bottom, big_bottom)]
    odd_row, even_row = (top, bottom) if delta == 1 else (bottom, top)
    merged = sorted([2 * a for a in even_row] + [2 * b + 1 for b in odd_row])
    m = len(bottom)
    stair = sorted([4 * t for t in range(m)] + [4 * t + 1 for t in range(m)]
                   + ([4 * m] if delta == 1 else []))
    assert len(stair) == len(merged)
    return tuple(reversed([c - s for c, s in zip(merged, stair)]))


def test_wavefront_matches_direct_expansion_small():
    for delta in (0, 1):
        for e in range(21):
            for f in range(21):
                if max(e, f) + delta < 1:
                    continue
                ep = wavefront_partition(e, f, delta)
                assert ep.partition.parts == _symbol_wavefront(e, f, delta), (e, f, delta)


def test_wavefront_frozen_values():
    assert wavefront_partition(0, 1, 1).partition.parts == (3, 1, 1)
    assert wavefront_partition(1, 1, 1).partition.parts == (5, 3, 1)
    assert wavefront_partition(1, 1, 0).partition.parts == (3, 1)
    assert wavefront_partition(0, 2, 0).partition.parts == (3, 3, 1, 1)
    assert wavefront_partition(1, 2, 1).partition.parts == (7, 5, 3, 1, 1)
    # symmetric in e and f
    assert wavefront_partition(1, 0, 1) == wavefront_partition(0, 1, 1)


def test_wavefront_size_and_parity():
    for delta in (0, 1):
        for e in range(7):
            for f in range(e, 7):
                if f + delta < 1:
                    continue
                ep = wavefront_partition(e, f, delta)
                assert ep.eps == 0
                assert ep.total == 2 * (e * (e + delta) + f * (f + delta)) + delta
                assert all(part % 2 == 1 for part in ep.partition)


def test_wavefront_distinct_odd_part_count():
    # e + f + delta distinct (odd) parts
    for delta in (0, 1):
        for e in range(6):
            for f in range(e, 6):
                if f + delta < 1:
                    continue
                ep = wavefront_partition(e, f, delta)
                assert len(ep.partition.distinct()) == e + f + delta


def test_cuspidal_multiplicity_examples():
    assert cuspidal_multiplicity(0, 1, 1) == 2
    assert cuspidal_multiplicity(1, 1, 0) == 1
    assert cuspidal_multiplicity(0, 2, 0) == 2
    with pytest.raises(InputError):
        cuspidal_multiplicity(0, 0, 0)


def test_multiplicity_equals_component_order():
    for delta in (0, 1):
        for e in range(7):
            for f in range(e, 7):
                if f + delta < 1:
                    continue
                ep = wavefront_partition(e, f, delta)
                assert cuspidal_multiplicity(e, f, delta) == component_orders(ep)[2]


def test_wavefront_component_stats():
    ep = wavefront_partition(2, 3, 0)
    a, delta = eps_stats(ep)
    assert a == 5 and delta == 1


@pytest.mark.parametrize("call, message", [
    (lambda: special_symbol(1, 2), "delta must be 0 or 1"),
    (lambda: special_symbol(-1, 1), "e must be >= 0"),
    (lambda: special_symbol(0, 0), "e must be >= 1 for defect 0"),
    (lambda: wavefront_partition(1, 1, 2), "delta must be 0 or 1"),
    (lambda: wavefront_partition(-1, 1, 0), "e, f must be >= 0"),
    (lambda: wavefront_partition(1, -1, 1), "e, f must be >= 0"),
])
def test_rejections(call, message):
    with pytest.raises(InputError, match=message):
        call()
