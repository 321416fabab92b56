import pytest

from charfield.errors import InputError
from charfield.groups import Family, GroupSpec
from charfield.partitions import EpsPartition, Partition, eps_partitions
from charfield.power_maps import (
    coweight_half_sum_image,
    regular_rational,
    unipotent_rational,
)


def test_half_sum_table():
    img = coweight_half_sum_image("C", 3)
    assert (img.coefficient, img.weight_index) == (1, 3)
    img = coweight_half_sum_image("B", 4)  # m=2, eps=0
    assert (img.coefficient, img.weight_index) == (2, 1)
    assert coweight_half_sum_image("E8").is_trivial
    assert coweight_half_sum_image("G2").is_trivial
    img = coweight_half_sum_image("E7")
    assert (img.coefficient, img.weight_index) == (1, 7)
    img = coweight_half_sum_image("A", 5)  # eps=1, m=2
    assert (img.coefficient, img.weight_index) == (1, 2)
    assert coweight_half_sum_image("A", 4).is_trivial
    img = coweight_half_sum_image("D", 7)  # m=3, eps=1
    assert (img.coefficient, img.weight_index) == (4, 1)
    with pytest.raises(InputError):
        coweight_half_sum_image("H", 4)


def test_regular_rational():
    assert regular_rational(GroupSpec(Family.SO_EVEN, 4, 7), 3)
    assert not regular_rational(GroupSpec(Family.SP, 2, 7), 3)
    assert regular_rational(GroupSpec(Family.SP, 2, 49), 3)
    with pytest.raises(InputError):
        regular_rational(GroupSpec(Family.SP, 2, 7), 14)


def test_unipotent_rational_examples():
    g = GroupSpec(Family.SP, 2, 3)
    assert unipotent_rational(g, EpsPartition(Partition([2, 2]), 1), 2)
    assert not unipotent_rational(g, EpsPartition(Partition([2, 1, 1]), 1), 2)
    so = GroupSpec(Family.SO_EVEN, 2, 3, 1)
    assert unipotent_rational(so, EpsPartition(Partition([3, 1]), 0), 2)


def test_unipotent_rational_square_field():
    for q in (9, 25):
        g = GroupSpec(Family.SP, 2, q)
        for ep in eps_partitions(4, 1):
            for k in range(1, 8):
                if k % g.p == 0:
                    continue
                assert unipotent_rational(g, ep, k)


def test_square_class_invariance():
    for q in (3, 5, 7):
        g = GroupSpec(Family.SP, 2, q)
        for ep in eps_partitions(4, 1):
            for k in range(1, q):
                for j in range(1, q):
                    assert unipotent_rational(g, ep, k) == unipotent_rational(
                        g, ep, k * j * j
                    )


def test_regular_matches_unipotent_on_regular_partition():
    for q in (3, 5, 7, 9):
        for n in (1, 2):
            g = GroupSpec(Family.SP, n, q)
            ep = EpsPartition(Partition([2 * n]), 1)
            for k in range(1, q):
                if k % g.p == 0:
                    continue
                assert regular_rational(g, k) == unipotent_rational(g, ep, k)


def test_partition_family_mismatch():
    g = GroupSpec(Family.SP, 2, 3)
    with pytest.raises(InputError):
        unipotent_rational(g, EpsPartition(Partition([3, 1]), 0), 2)
    with pytest.raises(InputError):
        unipotent_rational(g, EpsPartition(Partition([2]), 1), 2)
