import dataclasses
from math import prod

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from charfield import groups, semisimple
from charfield.errors import BudgetExceededError, InputError
from charfield.groups import Family, GroupSpec, factor_prime_power, factorize, is_prime

MR_BOUND = 3317044064679887385961981  # 1287836182261 * 2575672364521
MERSENNE_89 = 2**89 - 1  # a prime above MR_BOUND


def _sieve(n):
    flags = [False, False] + [True] * (n - 2)
    for p in range(2, n):
        if flags[p]:
            for multiple in range(p * p, n, p):
                flags[multiple] = False
    return flags


PRIME_FLAGS = _sieve(10**5)


def test_is_prime_agrees_with_sieve():
    assert [n for n in range(-3, 10**5) if is_prime(n)] == [n for n in range(10**5) if PRIME_FLAGS[n]]


def _chernick_carmichael(limit):
    # (6k+1)(12k+1)(18k+1) is a Carmichael number whenever all three factors are prime
    out = []
    for k in range(1, limit):
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(PRIME_FLAGS[f] for f in factors):
            out.append(prod(factors))
    return out


def test_pseudoprimes_rejected():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 825265]
    carmichael += _chernick_carmichael(5000)
    assert len(carmichael) > 20 and max(carmichael) > 10**14
    strong = [3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
              3825123056546413051,  # to every prime base up to 23
              318665857834031151167461]  # to every prime base up to 37
    for n in carmichael + strong:
        assert not is_prime(n), n
        f = factorize(n)
        assert prod(p**e for p, e in f) == n and len(f) > 1


def test_primality_bound():
    # the least strong pseudoprime to all 13 bases is where passing them
    # stops proving primality; a failing base still proves compositeness
    for n in (MR_BOUND, MERSENNE_89):
        with pytest.raises(BudgetExceededError):
            is_prime(n)
        with pytest.raises(BudgetExceededError):
            factorize(n)
    assert not is_prime(MERSENNE_89 * (2**61 - 1))
    with pytest.raises(BudgetExceededError):
        factorize(3 * MERSENNE_89)
    # a factor above the bound is fine once it is a power of a smaller prime
    assert factorize(2 * (10**12 + 39) ** 3) == ((2, 1), (10**12 + 39, 3))
    assert factorize(3**70 * 5**30) == ((3, 70), (5, 30))


@given(st.integers(1, 10**24 - 1))
@settings(max_examples=150, deadline=None)
def test_factorize_round_trip(n):
    f = factorize(n)
    assert prod(p**e for p, e in f) == n
    assert [p for p, _ in f] == sorted({p for p, _ in f})
    assert all(e >= 1 and is_prime(p) for p, e in f)


def test_factorize_edge_cases():
    assert factorize(1) == ()
    assert factorize(2) == ((2, 1),)
    assert factorize(997**2 * 1009) == ((997, 2), (1009, 1))
    for n in (0, -12):
        with pytest.raises(InputError):
            factorize(n)


@pytest.mark.parametrize("p", [10**9 + 7, 999999937, 10**12 + 39, 999999999989])
def test_factor_prime_power_large(p):
    for a in (1, 2, 3, 4):
        assert factor_prime_power(p**a) == (p, a)
    for q in (2 * p, 1009 * p, 3 * p**2, (2**31 - 1) * p):
        with pytest.raises(InputError):
            factor_prime_power(q)


def test_factor_prime_power_rejects():
    for q in (-7, 0, 1, 12, 3 * 5**4):
        with pytest.raises(InputError):
            factor_prime_power(q)


def test_rho_budget(monkeypatch):
    n = (10**6 + 3) * (10**6 + 33)
    assert factorize(n) == ((10**6 + 3, 1), (10**6 + 33, 1))
    monkeypatch.setattr(groups, "_RHO_STEPS", 64)
    with pytest.raises(BudgetExceededError):
        factorize(n)


def test_group_spec_stores_one_form():
    # a family given by its value, and integral ranks, equal the enum spec
    # and share its cache entries, so they must answer as it does
    semisimple.enumerate_classes.cache_clear()
    by_value = GroupSpec("sp", 1, 7)
    assert by_value.family is Family.SP
    assert (by_value.dual_family, by_value.form_eps, by_value.dual_dim) == (Family.SO_ODD, 1, 3)
    first = semisimple.enumerate_classes(by_value)
    classes = semisimple.enumerate_classes(GroupSpec(Family.SP, 1, 7))
    assert classes is first and len(classes) == 8
    assert all(c.to_dict()["family"] == "sp" for c in classes)
    assert GroupSpec(Family.SP, numpy.int64(2), 7).dim == 4
    assert type(GroupSpec(Family.SP, numpy.int64(2), 7).n) is int


def _admitted_groups():
    # three families, n <= 3, odd q <= 13, both twists of so-even
    for q in (3, 5, 7, 9, 11, 13):
        for n in (1, 2, 3):
            yield GroupSpec(Family.SP, n, q)
            yield GroupSpec(Family.SO_ODD, n, q)
            yield GroupSpec(Family.SO_EVEN, n, q, 1)
            yield GroupSpec(Family.SO_EVEN, n, q, -1)


def test_group_spec_stores_what_follows_from_its_fields():
    groups = list(_admitted_groups())
    assert len(groups) == 72
    for g in groups:
        ((p, a),) = factorize(g.q)
        assert (g.p, g.field_degree, g.q_is_square) == (p, a, a % 2 == 0), g
        sp, odd = g.family is Family.SP, g.family is Family.SO_ODD
        assert g.dim == (2 * g.n + 1 if odd else 2 * g.n), g
        assert g.form_eps == (1 if sp else 0), g
        assert g.dual_dim == (2 * g.n + 1 if sp else 2 * g.n), g
        assert g.dual_family == {Family.SP: Family.SO_ODD, Family.SO_ODD: Family.SP,
                                 Family.SO_EVEN: Family.SO_EVEN}[g.family], g


def test_group_spec_equality_hash_and_repr_ignore_the_stored_attributes():
    by_value, by_enum = GroupSpec("sp", 1, 9), GroupSpec(Family.SP, 1, 9)
    assert by_value == by_enum and hash(by_value) == hash(by_enum)
    assert hash(by_enum) == hash((Family.SP, 1, 9, 1))
    assert repr(by_value) == repr(by_enum) == "GroupSpec(family=<Family.SP: 'sp'>, n=1, q=9, twist=1)"
    assert GroupSpec(Family.SO_EVEN, 2, 5, -1) != GroupSpec(Family.SO_EVEN, 2, 5, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        by_enum.p = 5


@pytest.mark.parametrize("args, message", [
    (("sq", 1, 7), "not a valid Family"),
    ((None, 1, 7), "not a valid Family"),
    ((Family.SP, 2.0, 7), "cannot be interpreted as an integer"),
    ((Family.SP, 2, 7.0), "cannot be interpreted as an integer"),
    ((Family.SO_EVEN, 2, 7, -1.0), "cannot be interpreted as an integer"),
    ((Family.SP, "2", 7), "cannot be interpreted as an integer"),
])
def test_group_spec_rejects_what_it_cannot_store(args, message):
    with pytest.raises(InputError, match=message):
        GroupSpec(*args)
