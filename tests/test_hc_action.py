from math import gcd

import pytest

from charfield.errors import InputError
from charfield.galois_arith import (
    GaloisElement,
    PrimePowerAction,
    galois_from_prime_power,
    gauss_sqrt_sign,
)
from charfield.groups import Family, GroupSpec
from charfield.hc_action import (
    ComplementSign,
    extension_sign,
    index_sqrt_sign,
    index_sqrt_sign_h,
    series_permutation,
    series_twist_sign,
    series_twist_sign_h,
)
from charfield.weyl_b import SeriesDescriptor, relative_weyl

GRID_Q = [3, 5, 7, 9, 11, 13, 17, 25, 27]
GRID_ELL = [2, 3, 5, 7, 11]


def _descriptors(q):
    return [
        SeriesDescriptor(GroupSpec(Family.SP, 2, q), True, 2, 1, 1),
        SeriesDescriptor(GroupSpec(Family.SP, 4, q), False, 2, 1, 1),
        SeriesDescriptor(GroupSpec(Family.SO_EVEN, 3, q, 1), True, 3, 1, 2),
        SeriesDescriptor(GroupSpec(Family.SO_EVEN, 3, q, -1), True, 3, 2, 1),
        SeriesDescriptor(GroupSpec(Family.SO_EVEN, 4, q, 1), False, 2, 1, 1),
        SeriesDescriptor(GroupSpec(Family.SO_ODD, 2, q), True, 2, 1, 1),
    ]


def _sp_desc(q):
    return SeriesDescriptor(GroupSpec(Family.SP, 2, q), True, 2, 1, 1)


def _rows(g):
    """Every descriptor of g that has a row of the relative Weyl table."""
    n = g.n
    for principal, m in [(True, n)] + [(False, m) for m in range(n - 1)]:
        for a in range(m + 1):
            desc = SeriesDescriptor(g, principal, m, a, m - a)
            try:
                relative_weyl(desc)
            except InputError:
                continue
            yield desc


def test_complement_sign_invariant():
    # a trivial complement carries +1, from all five sign functions
    assert (ComplementSign(-1) * ComplementSign(-1)).value == 1
    for q in (3, 5, 7, 9, 11, 25, 27):
        groups = [GroupSpec(family, n, q) for family in Family for n in range(1, 9)]
        groups += [GroupSpec(Family.SO_EVEN, n, q, -1) for n in range(1, 9)]
        trivial = [desc for g in groups for desc in _rows(g) if not relative_weyl(desc).c_flips]
        assert len(trivial) == 128, q  # the odd orthogonal rows
        p = trivial[0].group.p
        sigmas = [GaloisElement(k, 4 * p) for k in range(1, 4 * p) if gcd(k, 4 * p) == 1]
        actions = [PrimePowerAction(ell, r, isign) for ell in GRID_ELL if ell != p
                   for r in range(4) for isign in ((1, -1) if ell == 2 else (0,))]
        for desc in trivial:
            for sigma in sigmas:
                for sign in (index_sqrt_sign, extension_sign, series_twist_sign):
                    assert sign(desc, sigma).value == 1, (desc, sigma, sign)
            for h in actions:
                for sign in (index_sqrt_sign_h, series_twist_sign_h):
                    assert sign(desc, h).value == 1, (desc, h, sign)


def test_index_sign_square_field():
    desc = _sp_desc(49)
    sigma = GaloisElement(3, 4 * 7)
    assert index_sqrt_sign(desc, sigma).value == 1
    assert series_twist_sign(desc, sigma).value == 1


def test_index_sign_orthogonal_always_trivial():
    for q in (3, 5, 7):
        for desc in _descriptors(q):
            if desc.group.family is Family.SP:
                continue
            p = desc.group.p
            for k in (1, 3, 5, 7):
                if k % p == 0 or k % 2 == 0:
                    continue
                sigma = GaloisElement(k, 4 * p)
                assert index_sqrt_sign(desc, sigma).value == 1
                assert series_twist_sign(desc, sigma).value == 1


def test_sp_twist_equals_gauss_sign():
    # the combined sign must come out as the action on sqrt(omega*p)
    for q in (3, 5, 7, 11):
        desc = _sp_desc(q)
        p = desc.group.p
        for k in range(1, 4 * p):
            if gcd(k, 4 * p) != 1:
                continue
            sigma = GaloisElement(k, 4 * p)
            assert series_twist_sign(desc, sigma).value == gauss_sqrt_sign(sigma, p)


def test_extension_sign_cases():
    sigma_fix_i = GaloisElement(5, 12)
    sigma_move_i = GaloisElement(7, 12)
    desc = _sp_desc(3)
    assert extension_sign(desc, sigma_fix_i).value == 1
    assert extension_sign(desc, sigma_move_i).value == -1
    desc5 = _sp_desc(5)
    sigma = GaloisElement(3, 20)
    assert extension_sign(desc5, sigma).value == 1  # q = 1 mod 4


def test_grid_consistency():
    for q in GRID_Q:
        for desc in _descriptors(q):
            p = desc.group.p
            for ell in GRID_ELL:
                if ell == p:
                    continue
                for r in range(4):
                    for isign in ((1, -1) if ell == 2 else (0,)):
                        h = PrimePowerAction(ell, r, isign)
                        direct = series_twist_sign_h(desc, h)
                        sigma = galois_from_prime_power(h, 4 * p)
                        composed = series_twist_sign(desc, sigma)
                        assert direct.value == composed.value, (q, ell, r, isign, desc)


def test_linear_prime_triviality():
    # odd ell dividing q - 1 never moves the index square root
    for q in GRID_Q:
        for ell in (3, 5, 7, 11):
            if (q - 1) % ell or ell == GroupSpec(Family.SP, 2, q).p:
                continue
            for desc in _descriptors(q):
                for r in range(4):
                    h = PrimePowerAction(ell, r)
                    assert index_sqrt_sign_h(desc, h).value == 1


def test_twist_sign_multiplicative():
    desc = _sp_desc(3)
    m = 12
    sigmas = [GaloisElement(k, m) for k in (1, 5, 7, 11)]
    for s1 in sigmas:
        for s2 in sigmas:
            lhs = series_twist_sign(desc, GaloisElement(s1.k * s2.k % m, m)).value
            rhs = series_twist_sign(desc, s1).value * series_twist_sign(desc, s2).value
            assert lhs == rhs


def test_h_formula_examples():
    # q = 3, ell = 2, r = 1: sign is (-1)^r = -1
    assert series_twist_sign_h(_sp_desc(3), PrimePowerAction(2, 1, 1)).value == -1
    assert series_twist_sign_h(_sp_desc(3), PrimePowerAction(2, 1, -1)).value == -1
    # q = 3, ell = 7, r = 1: sign is (7/3) = +1
    assert series_twist_sign_h(_sp_desc(3), PrimePowerAction(7, 1)).value == 1
    # q = 1 mod 8 never twists under ell = 2
    assert series_twist_sign_h(_sp_desc(9), PrimePowerAction(2, 3, -1)).value == 1
    with pytest.raises(InputError):
        series_twist_sign_h(_sp_desc(3), PrimePowerAction(3, 1))


def test_series_permutation():
    desc = _sp_desc(3)
    assert series_permutation(desc, GaloisElement(1, 12)) == "identity"
    assert series_permutation(desc, GaloisElement(5, 12)) == "twist"  # (5/3) = -1
    so = SeriesDescriptor(GroupSpec(Family.SO_ODD, 2, 3), True, 2, 1, 1)
    assert series_permutation(so, GaloisElement(5, 12)) == "identity"


@pytest.mark.parametrize("call, message", [
    (lambda: ComplementSign(3), "bad complement sign"),
    (lambda: ComplementSign(0), "bad complement sign"),
    (lambda: index_sqrt_sign_h(_sp_desc(3), PrimePowerAction(3, 1)), "ell differs"),
    (lambda: index_sqrt_sign_h(_sp_desc(5), PrimePowerAction(5, 0)), "ell differs"),
])
def test_rejections(call, message):
    with pytest.raises(InputError, match=message):
        call()
