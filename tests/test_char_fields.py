import re
from math import gcd, lcm

import pytest

from charfield import oracle
from charfield.char_fields import (
    CharacterField,
    _rank1_counts,
    character_field,
    is_real_series,
    predicted_fixed_count,
    predicted_fixed_count_rank1,
)
from charfield.errors import BudgetExceededError, InputError
from charfield.galois_arith import (
    GaloisElement,
    PrimePowerAction,
    galois_from_prime_power,
    gauss_sqrt_sign,
    gauss_sum_exact,
    is_square_in_fq,
    legendre,
    signed_prime,
)
from charfield.groups import Family, GroupSpec
from charfield.partitions import EpsPartition, Partition, eps_partitions
from charfield.power_maps import unipotent_rational
from charfield.semisimple import (
    CyclotomicSubfield,
    EigenvalueOrbit,
    class_from_dict,
    enumerate_classes,
    in_spinor_kernel,
    involution_class,
    order_of,
)
from charfield.symbols import Symbol, cuspidal_multiplicity, special_symbol, wavefront_partition


def _cls(family, n, q, orbits, twist=1, plus=None, minus=None):
    return class_from_dict(
        {"family": family, "n": n, "q": q, "twist": twist,
         "orbits": [{"frac": f, "mult": m} for f, m in orbits],
         "plus_type": plus, "minus_type": minus}
    )


def _classes_up_to(g, bound):
    return [cls for cls in enumerate_classes(g) if order_of(cls) <= bound]


def test_involution_field_sp():
    # rank one, q = 7: the involution series carries Q(sqrt(-7))
    cls = _cls("sp", 1, 7, [("0/1", 1), ("1/2", 2)], minus=1)
    field = character_field(GroupSpec(Family.SP, 1, 7), cls)
    assert field.degree == 2
    assert field.adjoin_sqrt_omega_p
    assert field.adjoined_radicand == -7
    assert not field.is_real


def test_so_fields_are_core_only():
    g = GroupSpec(Family.SO_EVEN, 2, 3, 1)
    for cls in _classes_up_to(g, 4):
        field = character_field(g, cls)
        assert not field.adjoin_sqrt_omega_p
        assert field.degree == field.base.degree


def test_degree_2_without_adjunction():
    # order-five class with stabiliser {1, -1}: degree-two real core field
    cls = _cls("sp", 2, 11, [("0/1", 3), ("1/5", 1), ("4/5", 1)])
    field = character_field(GroupSpec(Family.SP, 2, 11), cls)
    assert field.degree == 2
    assert not field.adjoin_sqrt_omega_p
    assert field.is_real


def test_adjoin_requires_nonsquare_q():
    for q in (9, 25):
        cls = _cls("sp", 1, q, [("0/1", 1), ("1/2", 2)], minus=1)
        field = character_field(GroupSpec(Family.SP, 1, q), cls)
        assert not field.adjoin_sqrt_omega_p
        assert field.degree == 1


def test_adjoin_false_whenever_q_square_enumerated():
    g = GroupSpec(Family.SP, 2, 9)
    for cls in _classes_up_to(g, 10):
        assert not character_field(g, cls).adjoin_sqrt_omega_p


def test_field_blind_to_field_degree_parity():
    # same spectrum over q and q**3 gives the same field data
    for q in (3, 7):
        a = _cls("sp", 1, q, [("0/1", 1), ("1/2", 2)], minus=1)
        b = _cls("sp", 1, q**3, [("0/1", 1), ("1/2", 2)], minus=1)
        fa = character_field(GroupSpec(Family.SP, 1, q), a)
        fb = character_field(GroupSpec(Family.SP, 1, q**3), b)
        assert (fa.base.d, fa.base.stab, fa.adjoin_sqrt_omega_p) == (
            fb.base.d, fb.base.stab, fb.adjoin_sqrt_omega_p)


def test_degree_formula():
    for g in (GroupSpec(Family.SO_ODD, 2, 3), GroupSpec(Family.SO_EVEN, 2, 3, 1)):
        for cls in _classes_up_to(g, 4):
            field = character_field(g, cls)
            assert field.degree * len(field.base.stab) == _phi(field.base.d)


def _phi(d):
    from math import gcd
    return sum(1 for x in range(1, d + 1) if gcd(x, d) == 1) if d > 1 else 1


def test_is_real_series():
    q3 = GroupSpec(Family.SP, 1, 3)
    invol3 = _cls("sp", 1, 3, [("0/1", 1), ("1/2", 2)], minus=1)
    assert not is_real_series(q3, invol3)  # q = 3 mod 4 and -1 eigenvalue

    q9 = GroupSpec(Family.SP, 1, 9)
    invol9 = _cls("sp", 1, 9, [("0/1", 1), ("1/2", 2)], minus=1)
    assert is_real_series(q9, invol9)  # q = 1 mod 4

    so = GroupSpec(Family.SO_EVEN, 2, 3, 1)
    for cls in _classes_up_to(so, 4):
        assert is_real_series(so, cls)


def test_cuspidal_fixed():
    # sigma_3 fixes a cuspidal character exactly when it fixes the series field
    g = GroupSpec(Family.SP, 1, 7)
    one = _cls("sp", 1, 7, [("0/1", 3)])
    invol = _cls("sp", 1, 7, [("0/1", 1), ("1/2", 2)], minus=1)
    assert character_field(g, one).fixed_by(3)
    assert not character_field(g, invol).fixed_by(3)  # (3/7) = -1
    g49 = GroupSpec(Family.SP, 1, 49)
    invol49 = _cls("sp", 1, 49, [("0/1", 1), ("1/2", 2)], minus=1)
    assert character_field(g49, invol49).fixed_by(3)
    with pytest.raises(InputError):  # at q = 7, 1/4 and 3/4 are one orbit: dimension 5
        _cls("sp", 1, 7, [("0/1", 1), ("1/4", 1), ("3/4", 1)])


def test_predicted_identity_count():
    assert predicted_fixed_count_rank1(5, 1) == 9
    assert predicted_fixed_count_rank1(7, 1) == 11
    assert predicted_fixed_count_rank1(11, 1) == 15
    assert predicted_fixed_count_rank1(13, 1) == 17


def test_predicted_frozen_values():
    # values confirmed by the matrix-class oracle
    assert predicted_fixed_count_rank1(7, 5) == 5
    assert predicted_fixed_count_rank1(7, 335) == 7  # 335 = -1 mod 336
    assert predicted_fixed_count_rank1(5, 7) == 5


def test_predicted_rejects_bad_k():
    with pytest.raises(InputError):
        predicted_fixed_count_rank1(7, 3)  # gcd(3, 336) != 1


def test_predicted_count_against_its_definition():
    # the count written out from the definition for every unit k, k + |G|
    # and -k: each series of Sp2(F_q) counts its characters, two for the
    # identity and involution classes and one for the others, when k mod d
    # lies in the stabiliser of its field's conductor d and, if the field
    # holds sqrt(omega*p), the Gauss-sum sign of k mod lcm(4p, q^2 - 1) is
    # +1.  q = 9 has p = 3 != q.
    for q in (3, 5, 7, 9, 11, 13):
        g = GroupSpec(Family.SP, 1, q)
        order, m = q * (q * q - 1), lcm(4 * g.p, q * q - 1)
        series = [(character_field(g, cls), 2 if order_of(cls) <= 2 else 1)
                  for cls in enumerate_classes(g)]
        for k in range(1, order):
            if gcd(k, order) != 1:
                continue
            for j in (k, k + order, -k):
                sign = gauss_sqrt_sign(GaloisElement(j % m, m), g.p)
                want = sum(size for field, size in series
                           if j % field.base.d in field.base.stab
                           and (sign == 1 or not field.adjoin_sqrt_omega_p))
                assert predicted_fixed_count_rank1(q, j) == want, (q, j)


def test_predicted_count_vector_spans_p_and_the_conductors():
    # one entry per residue mod lcm(p, conductors of the series fields), at
    # most 1,092 since the series enumeration stops at q = 13
    for q in (3, 5, 7, 9, 11, 13):
        g = GroupSpec(Family.SP, 1, q)
        conductors = [character_field(g, cls).base.d for cls in enumerate_classes(g)]
        assert len(_rank1_counts(q)) == lcm(g.p, *conductors) <= 1092, q


_SO4_3, _SO4_7 = GroupSpec(Family.SO_EVEN, 2, 3), GroupSpec(Family.SO_EVEN, 2, 7)
_SP2_7, _SP2_49 = GroupSpec(Family.SP, 1, 7), GroupSpec(Family.SP, 1, 49)


# every entry point that takes a group and a class, with a group and a class
# of another group of the same family that the entry point accepts otherwise
@pytest.mark.parametrize("entry, g, cls", [
    (in_spinor_kernel, _SO4_3, involution_class(_SO4_7, 2)),
    (character_field, _SO4_3, involution_class(_SO4_7, 2)),
    (is_real_series, _SO4_3, involution_class(_SO4_7, 2)),
    (character_field, _SP2_49, _cls("sp", 1, 7, [("0/1", 1), ("1/2", 2)], minus=1)),
], ids=["in_spinor_kernel", "character_field", "is_real_series", "character_field_sp"])
def test_class_of_another_group_is_rejected(entry, g, cls):
    entry(cls.group, cls)  # answered for the class's own group
    with pytest.raises(InputError, match="class does not belong to this group"):
        entry(g, cls)


# (q, k) -> what both Brauer entry points give, call after call: q is
# checked before k, and the prediction checks k before it enumerates the
# series, which q = 17 is past the bound of; the oracle's census admits it,
# but not q = 1000003, whose closure passes the census cap
_BRAUER_INPUTS = [
    ((4, 5), InputError("only odd q is supported"), InputError("only odd q is supported")),
    ((15, 7), InputError("15 is not a prime power"), InputError("15 is not a prime power")),
    ((17, 2), InputError("k must be coprime to the group order"),
     InputError("k must be coprime to the group order")),
    ((17, 5), 5, BudgetExceededError("class enumeration is restricted")),
    ((1000003, 2), BudgetExceededError("the closure stops at"),
     InputError("k must be coprime to the group order")),
    ((1000003, 5), BudgetExceededError("the closure stops at"),
     BudgetExceededError("class enumeration is restricted")),
]


def _outcome(f, q, k):
    try:
        return f(q, k)
    except (InputError, BudgetExceededError) as exc:
        return exc


@pytest.mark.parametrize("pair, raw, predicted", _BRAUER_INPUTS,
                         ids=[f"q{q}-k{k}" for (q, k), _, _ in _BRAUER_INPUTS])
def test_brauer_entry_points_repeat_their_answers(pair, raw, predicted):
    for f, want in ((oracle.brauer_fixed_classes_sl2, raw),
                    (predicted_fixed_count_rank1, predicted)):
        for _ in range(2):
            got = _outcome(f, *pair)
            if isinstance(want, Exception):
                assert type(got) is type(want) and str(got).startswith(str(want)), (f, got)
            else:
                assert got == want, f


# entry points that refuse a float or a string through operator.index, with
# an InputError naming the argument
@pytest.mark.parametrize("call, args", [
    (GaloisElement, (3.0, 8)),
    (GaloisElement, (3, 8.0)),
    (PrimePowerAction, (3.0, 1)),
    (PrimePowerAction, (3, 1.0)),
    (EpsPartition, (Partition([2]), 1.0)),
    (oracle.brauer_fixed_classes_sl2, (7, 5.0)),
    (predicted_fixed_count_rank1, (7, 5.0)),
    (oracle.brauer_fixed_classes, (GroupSpec(Family.SP, 1, 7), "5")),
    (predicted_fixed_count, (GroupSpec(Family.SO_ODD, 1, 7), 5.0)),
    (oracle.power_conjugacy_search, (_SP2_7, ((1, 1), (0, 1)), 3.0)),
    (oracle.power_conjugacy_search, (_SP2_7, ((1, 1), (0, 1)), "3")),
    (unipotent_rational, (_SP2_7, EpsPartition(Partition([2]), 1), 3.0)),
    (oracle.mat_pow, (((1, 1), (0, 1)), 2.0, 7)),
    (legendre, (3.0, 7)),
    (is_square_in_fq, (3.0, 7)),
    (gauss_sum_exact, (7, 3.0)),
    (EigenvalueOrbit, (1.0, 2, 1)),
    (special_symbol, (2.0, 1)),
    (special_symbol, ("2", 1)),
    (wavefront_partition, (1.0, 2, 0)),
    (cuspidal_multiplicity, (1, 2.0, 0)),
    (eps_partitions, (4.0, 1)),
    (legendre, (2, 7.0)),
    (signed_prime, (7.0,)),
    (gauss_sum_exact, (7.0, 2)),
    (gauss_sqrt_sign, (GaloisElement(1, 28), 7.0)),
    (galois_from_prime_power, (PrimePowerAction(3, 1), 28.0)),
    (is_square_in_fq, (2, "9")),
    (is_square_in_fq, (2, 9.0)),
    (Symbol, (("a",), ())),
    (Symbol, ((0.5,), ())),
], ids=["GaloisElement-k", "GaloisElement-m", "PrimePowerAction-ell", "PrimePowerAction-r",
        "EpsPartition", "brauer_fixed_classes_sl2", "predicted_fixed_count_rank1",
        "brauer_fixed_classes", "predicted_fixed_count", "power_conjugacy_search-float",
        "power_conjugacy_search-str", "unipotent_rational", "mat_pow", "legendre",
        "is_square_in_fq", "gauss_sum_exact", "EigenvalueOrbit", "special_symbol-float",
        "special_symbol-str", "wavefront_partition", "cuspidal_multiplicity", "eps_partitions",
        "legendre-p", "signed_prime", "gauss_sum_exact-p", "gauss_sqrt_sign",
        "galois_from_prime_power", "is_square_in_fq-q-str", "is_square_in_fq-q-float",
        "Symbol-str", "Symbol-float"])
def test_non_integer_arguments_are_refused(call, args):
    with pytest.raises(InputError, match="must be an integer"):
        call(*args)


@pytest.mark.parametrize("k, error", [(2, InputError), (5, BudgetExceededError)])
def test_prediction_refuses_large_q_before_any_per_residue_work(monkeypatch, k, error):
    # a Gauss sign taken per residue mod p before the checks would cost
    # O(p) at q = 10**9 + 7; the checks must come first
    def no_signs(*_):
        raise AssertionError("Gauss sign computed before the checks on q and k")

    monkeypatch.setattr("charfield.char_fields.legendre", no_signs)
    with pytest.raises(error):
        predicted_fixed_count_rank1(10**9 + 7, k)


def test_fixed_by_refuses_k_divisible_by_p():
    # sigma_7 is a unit mod 8, but p = 7 divides it, so it is no Galois
    # element of Q(sqrt(-7)), the field of the involution series of Sp2(F_7)
    cls = _cls("sp", 1, 7, [("0/1", 1), ("1/2", 2)], minus=1)
    with pytest.raises(InputError, match="k must be coprime to p$"):
        character_field(_SP2_7, cls).fixed_by(7)


def test_fixed_by_reads_the_legendre_symbol_at_any_k():
    # an odd conductor with sqrt(-7) adjoined: the even k = 2 is a unit mod
    # 5 and mod 7, and (2/7) = +1, (3/7) = -1
    field = CharacterField(CyclotomicSubfield(5, (1, 2, 3, 4)), True, 7)
    assert field.fixed_by(2) and not field.fixed_by(3)


@pytest.mark.parametrize("adjoin", [False, True], ids=["base", "adjoined"])
def test_fixed_by_refuses_a_non_integer_k(adjoin):
    # on Q(zeta_5)^{1, 4}, 4.0 and 4.5 once passed through k mod d, and 4.0
    # was answered fixed; every non-integer k is refused, named, on both
    # branches, before the residue mod p is taken
    field = CharacterField(CyclotomicSubfield(5, (1, 4)), adjoin, 3)
    for k in (4.0, 4.5, "4"):
        with pytest.raises(InputError, match=re.escape(f"k must be an integer, not {k!r}")):
            field.fixed_by(k)


def test_character_field_realness_from_its_base():
    # the eigenvalues of a semisimple class of these duals come in inverse
    # pairs, so every class stabiliser contains -1 and a non-real base is
    # reached only by building the field: Q(zeta_5) is not real
    assert not CharacterField(CyclotomicSubfield(5, (1,)), False, 3).is_real
    assert CharacterField(CyclotomicSubfield(5, (1, 4)), False, 3).is_real


# groups outside Sp2(F_q) and SO3(F_q) are refused before k is looked at,
# even a k that shares a factor with the group order
@pytest.mark.parametrize("g", [GroupSpec(Family.SP, 2, 3), _SO4_3, GroupSpec(Family.SO_EVEN, 1, 7)],
                         ids=["Sp4(F3)", "SO4+(F3)", "SO2+(F7)"])
@pytest.mark.parametrize("k", [5, 2, 3, 5.0])
def test_predicted_count_refuses_other_groups_first(g, k):
    with pytest.raises(InputError, match="Sp2\\(F_q\\) and SO3\\(F_q\\) only"):
        predicted_fixed_count(g, k)


def test_predicted_count_checks_k_before_the_series():
    so3_17 = GroupSpec(Family.SO_ODD, 1, 17)
    with pytest.raises(InputError, match="coprime to the group order"):
        predicted_fixed_count(so3_17, 2)
    with pytest.raises(BudgetExceededError, match="class enumeration is restricted"):
        predicted_fixed_count(so3_17, 5)


# one field per branch of fixed_by: Q(zeta_5)^{1, 4} without adjunction,
# and Q(sqrt(-7)) as the quadratic core Q adjoined sqrt(omega*7)
@pytest.mark.parametrize("field, k, fixed", [
    (CharacterField(CyclotomicSubfield(5, (1, 4)), False, 3), 2, False),  # 2 not in the stabiliser
    (CharacterField(CyclotomicSubfield(5, (1, 4)), False, 3), 9, True),  # 9 = -1 mod 5, no adjunction
    (CharacterField(CyclotomicSubfield(2, (1,)), True, 7), 9, True),  # (9/7) = +1
    (CharacterField(CyclotomicSubfield(2, (1,)), True, 7), 3, False),  # (3/7) = -1
], ids=["stabiliser-miss", "no-adjunction", "gauss-sign-plus", "gauss-sign-minus"])
def test_fixed_by_branches(field, k, fixed):
    assert field.fixed_by(k) is fixed


def test_cuspidal_fixed_against_the_square_rule():
    # every quasi-isolated class of Sp_2n(F_q), n <= 3, q <= 13 (where the
    # enumeration stops), and every unit k < 8p mod 4p: the identity class is
    # fixed, any other exactly when k is a square in F_q
    cases = 0
    for q in (3, 5, 7, 9, 11, 13):
        for n in (1, 2, 3):
            g = GroupSpec(Family.SP, n, q)
            for cls in _classes_up_to(g, 2):
                field = character_field(g, cls)
                for k in range(1, 8 * g.p):
                    if gcd(k, 4 * g.p) == 1:
                        want = order_of(cls) == 1 or is_square_in_fq(k, q)
                        assert field.fixed_by(k) is want, (q, n, cls, k)
                        cases += 1
    assert cases == 2160
