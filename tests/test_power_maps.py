import pytest

from charfield.errors import InputError
from charfield.groups import Family, GroupSpec
from charfield.partitions import EpsPartition, Partition, eps_partitions, eps_stats
from charfield.power_maps import rationality_criterion, unipotent_rational


def test_unipotent_rational_examples():
    g = GroupSpec(Family.SP, 2, 3)
    assert unipotent_rational(g, EpsPartition(Partition([2, 2]), 1), 2)
    assert not unipotent_rational(g, EpsPartition(Partition([2, 1, 1]), 1), 2)
    so = GroupSpec(Family.SO_EVEN, 2, 3, 1)
    assert unipotent_rational(so, EpsPartition(Partition([3, 1]), 0), 2)
    assert unipotent_rational(GroupSpec(Family.SO_EVEN, 4, 7), EpsPartition(Partition([7, 1]), 0), 3)
    regular = EpsPartition(Partition([4]), 1)
    assert not unipotent_rational(GroupSpec(Family.SP, 2, 7), regular, 3)
    assert unipotent_rational(GroupSpec(Family.SP, 2, 49), regular, 3)
    with pytest.raises(InputError):
        unipotent_rational(GroupSpec(Family.SP, 2, 7), regular, 14)


def test_rationality_criterion():
    sp = GroupSpec(Family.SP, 2, 3)
    assert rationality_criterion(sp, EpsPartition(Partition([2, 2]), 1)) == "even-multiplicities"
    assert rationality_criterion(sp, EpsPartition(Partition([2, 1, 1]), 1)) == "square-class-of-k"
    so = GroupSpec(Family.SO_ODD, 2, 3)
    assert rationality_criterion(so, EpsPartition(Partition([3, 1, 1]), 0)) == "orthogonal-always-rational"
    with pytest.raises(InputError):
        rationality_criterion(sp, EpsPartition(Partition([3, 1]), 0))


def test_square_class_rule_is_delta_one():
    # the symplectic rule reads delta of `eps_stats`: an even part of odd
    # multiplicity is what both name, over every admissible partition of 2n
    sp = {n: GroupSpec(Family.SP, n, 3) for n in range(1, 11)}
    cases = 0
    for n, g in sp.items():
        for ep in eps_partitions(2 * n, 1):
            mu = ep.partition
            moves = any(mu.multiplicity(m) % 2 for m in mu.distinct() if m % 2 == 0)
            assert eps_stats(ep)[1] == moves, ep
            rule = rationality_criterion(g, ep)
            assert rule == ("square-class-of-k" if moves else "even-multiplicities"), ep
            cases += 1
    assert cases == 642


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


def test_partition_family_mismatch():
    g = GroupSpec(Family.SP, 2, 3)
    with pytest.raises(InputError):
        unipotent_rational(g, EpsPartition(Partition([3, 1]), 0), 2)
    with pytest.raises(InputError):
        unipotent_rational(g, EpsPartition(Partition([2]), 1), 2)
