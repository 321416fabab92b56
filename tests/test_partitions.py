import itertools

import pytest

from charfield.errors import InputError
from charfield.partitions import (
    EpsPartition,
    Partition,
    component_orders,
    eps_partitions,
    eps_stats,
)


def test_partition_normalisation():
    assert Partition([3, 1, 1, 0, 0]) == Partition([3, 1, 1])
    assert Partition([]).total == 0
    with pytest.raises(InputError):
        Partition([1, 2])
    with pytest.raises(InputError):
        Partition([2, -1])


@pytest.mark.parametrize("parts", [[2.9], [3, 1.0], ["3", "1"], [None]])
def test_partition_refuses_parts_that_are_not_integers(parts):
    # neither truncated (2.9 -> 2) nor parsed ("3" -> 3)
    with pytest.raises(InputError, match="parts must be integers"):
        Partition(parts)


def test_multiplicity():
    mu = Partition([3, 2, 2, 1])
    assert mu.multiplicity(2) == 2
    assert mu.multiplicity(5) == 0
    assert mu.distinct() == (3, 2, 1)


def test_eps_partition_membership():
    EpsPartition(Partition([2, 2]), 1)
    EpsPartition(Partition([3, 1]), 0)
    with pytest.raises(InputError):
        EpsPartition(Partition([3, 2, 2]), 1)  # odd part 3 with odd multiplicity
    with pytest.raises(InputError):
        EpsPartition(Partition([2, 1, 1]), 0)  # even part 2 with odd multiplicity


def test_eps_stats_examples():
    assert eps_stats(EpsPartition(Partition([3, 1, 1, 1]), 0)) == (2, 1)
    assert eps_stats(EpsPartition(Partition([2, 2]), 1)) == (1, 0)
    assert eps_stats(EpsPartition(Partition([1, 1]), 1)) == (0, 0)
    assert eps_stats(EpsPartition(Partition([2]), 1)) == (1, 1)


def test_eps_stats_zero_padding_invariance():
    a = EpsPartition(Partition([3, 1, 1, 1]), 0)
    b = EpsPartition(Partition([3, 1, 1, 1, 0, 0, 0]), 0)
    assert eps_stats(a) == eps_stats(b)


def test_component_orders_examples():
    assert component_orders(EpsPartition(Partition([3, 1, 1, 1]), 0)) == (4, 2, 1)
    assert component_orders(EpsPartition(Partition([2]), 1)) == (2, 1, 1)
    assert component_orders(EpsPartition(Partition([1, 1]), 1)) == (1, 1, 1)


def test_component_orders_divisibility_chain():
    for n in range(1, 21):
        for eps in (0, 1):
            for ep in eps_partitions(n, eps):
                big, mid, small = component_orders(ep)
                assert mid % small == 0
                assert big % mid == 0


def test_eps_partitions_small_counts():
    assert [tuple(ep.partition.parts) for ep in eps_partitions(2, 1)] == [(2,), (1, 1)]
    assert [tuple(ep.partition.parts) for ep in eps_partitions(4, 1)] == [
        (4,), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [tuple(ep.partition.parts) for ep in eps_partitions(4, 0)] == [
        (3, 1), (2, 2), (1, 1, 1, 1)]
    assert [tuple(ep.partition.parts) for ep in eps_partitions(3, 0)] == [(3,), (1, 1, 1)]


def test_eps_partitions_are_the_admissible_ones():
    # eps_partitions keeps, in reverse lexicographic order, exactly the
    # partitions EpsPartition accepts; a rejection names the largest part of
    # the form's parity with odd multiplicity
    for n in range(9):
        every = sorted((c for k in range(n + 1)
                        for c in itertools.combinations_with_replacement(range(n, 0, -1), k)
                        if sum(c) == n), reverse=True)
        for eps in (0, 1):
            kept = []
            for parts in every:
                unpaired = [m for m in set(parts) if m % 2 == eps and parts.count(m) % 2]
                if unpaired:
                    with pytest.raises(InputError, match=f"part {max(unpaired)} "):
                        EpsPartition(Partition(parts), eps)
                else:
                    kept.append(parts)
            assert [ep.partition.parts for ep in eps_partitions(n, eps)] == kept, (n, eps)


@pytest.mark.parametrize("eps", [2, -1])
def test_eps_partition_rejects_eps(eps):
    with pytest.raises(InputError, match="eps must be 0 or 1"):
        EpsPartition(Partition([2]), eps)
