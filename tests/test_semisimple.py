import hashlib
import json
from math import gcd, lcm, prod

import numpy
import pytest
from hypothesis import assume, given, settings, strategies as st

from charfield import cli, semisimple
from charfield.char_fields import CharacterField, character_field
from charfield.errors import BudgetExceededError, InputError
from charfield.galois_arith import GaloisElement
from charfield.groups import Family, GroupSpec, is_prime
from charfield.semisimple import (
    CyclotomicSubfield,
    EigenvalueOrbit,
    SemisimpleClass,
    _orbit,
    class_from_dict,
    enumerate_classes,
    galois_stabilizer,
    has_central_twist_automorphism,
    in_spinor_kernel,
    involution_class,
    order_of,
    sigma_image,
)

SP1_Q5 = GroupSpec(Family.SP, 1, 5)
SP2_Q11 = GroupSpec(Family.SP, 2, 11)


def _cls(family, n, q, orbits, twist=1, plus=None, minus=None):
    return class_from_dict(
        {"family": family, "n": n, "q": q, "twist": twist,
         "orbits": [{"frac": f, "mult": m} for f, m in orbits],
         "plus_type": plus, "minus_type": minus}
    )


def _classes_up_to(g, bound):
    return [cls for cls in enumerate_classes(g) if order_of(cls) <= bound]


def test_order_of():
    s = _cls("sp", 2, 7, [("0/1", 5)])
    assert order_of(s) == 1
    s = _cls("sp", 2, 7, [("0/1", 3), ("1/2", 2)], minus=1)
    assert order_of(s) == 2
    s = _cls("sp", 2, 11, [("0/1", 1), ("1/5", 2), ("4/5", 2)])
    assert order_of(s) == 5


def test_normalisation_merges_orbits():
    # over q = 7 the four primitive fifth roots form one orbit; 4/5 and 1/5
    # normalise to the same representative
    s = class_from_dict(
        {"family": "sp", "n": 2, "q": 7,
         "orbits": [{"frac": "1/5", "mult": 1}, {"frac": "0/1", "mult": 1}]}
    )
    assert [o.frac for o in s.orbits] == ["0/1", "1/5"]
    assert _orbit(s.orbits[1].num, s.orbits[1].den, 7, s.group.dual_dim) == (1, 2, 3, 4)


def test_spectrum_walks_each_orbit_once(monkeypatch):
    # the class keeps {eigenvalue: its orbit} from one walk per orbit, and
    # every eigenvalue question reads it: here the self-inverse orbit of 1/5
    # over q = 7, which decides the labels, and the stabiliser
    walks = []
    walk = semisimple._orbit
    monkeypatch.setattr(semisimple, "_orbit", lambda *args: walks.append(args) or walk(*args))
    one, fifths = EigenvalueOrbit(0, 1, 1), EigenvalueOrbit(1, 5, 1)
    s = SemisimpleClass(GroupSpec(Family.SP, 2, 7), (one, fifths))
    assert s.spectrum == {(0, 1): one, **{(x, 5): fifths for x in range(1, 5)}}
    assert (s.mult_of_one(), s.mult_of_minus_one()) == (1, 0)
    assert galois_stabilizer(s) == CyclotomicSubfield(5, (1, 2, 3, 4))
    assert len(walks) == 2
    assert s == SemisimpleClass(s.group, s.orbits) and "spectrum" not in repr(s)
    # parsing and the power map hand their orbits to the class, which walks
    # each of them once while putting it in normal form
    walks.clear()
    parsed = class_from_dict({"family": "sp", "n": 2, "q": 7, "orbits": [
        {"frac": "4/5", "mult": 1}, {"frac": "0/1", "mult": 1}]})
    assert parsed == s and len(walks) == 2
    walks.clear()
    assert sigma_image(s, GaloisElement(3, 20)) == s and len(walks) == 2


def test_orbit_walk_cap(monkeypatch):
    for d in range(2, 200):
        for q in range(2, d):
            if gcd(q, d) == 1:
                order = next(e for e in range(1, d) if pow(q, e, d) == 1)
                assert semisimple._unit_order(q, d) == order, (q, d)
    # past the cap the orbit's length decides: 2 has order 12 mod 13, and
    # 5/35 = 1/7 has the 3 conjugates of 1/7 under 2, not ord(2) mod 35 = 12
    monkeypatch.setattr(semisimple, "_ORBIT_WALK", 2)
    with pytest.raises(BudgetExceededError):
        _orbit(1, 13, 2, 20)  # fits, but longer than the walk
    for bound in (2, 11):
        with pytest.raises(InputError):
            _orbit(1, 13, 2, bound)
    with pytest.raises(BudgetExceededError):
        _orbit(5, 35, 2, 5)
    with pytest.raises(InputError):
        _orbit(5, 35, 2, 2)
    monkeypatch.setattr(semisimple, "_ORBIT_WALK", 3)
    assert _orbit(5, 35, 2, 5) == (5, 10, 20)


def test_validation_rejects_bad_spectra():
    with pytest.raises(InputError):
        _cls("sp", 2, 7, [("0/1", 4)])  # wrong dimension
    with pytest.raises(InputError):
        _cls("sp", 2, 11, [("0/1", 3), ("1/5", 1)])  # not inversion-closed
    with pytest.raises(InputError):
        _cls("sp", 2, 7, [("0/1", 3), ("1/2", 2)])  # missing minus label
    with pytest.raises(InputError):
        _cls("so-odd", 2, 7, [("0/1", 3), ("1/2", 1)], minus=1)  # odd mult(-1)


@pytest.mark.parametrize("num, den, mult, message", [
    (3, 2, 1, "bad fraction 3/2"),
    (0, 0, 1, "bad fraction 0/0"),
    (1, 3, 0, "positive"),
])
def test_orbit_construction_rejections(num, den, mult, message):
    with pytest.raises(InputError, match=message):
        EigenvalueOrbit(num, den, mult)


def _orbits(*triples):
    return tuple(EigenvalueOrbit(a, d, m) for a, d, m in triples)


@pytest.mark.parametrize("g, orbits, message", [
    # the eigenvalue order 5 is the defining prime
    (SP1_Q5, _orbits((0, 1, 1), (1, 5, 1), (4, 5, 1)), "coprime to p"),
    # 5 has order 6 mod 7: the orbit of 1/7 does not fit in dimension 3
    (SP1_Q5, _orbits((0, 1, 1), (1, 7, 1)), "more than 3 elements"),
    # the dual SO3 labels a -1 eigenspace of dimension 2, and has none of
    # odd dimension
    (SP1_Q5, _orbits((0, 1, 1), (1, 2, 2)), "legal .* pairs are"),
    (SP1_Q5, _orbits((0, 1, 2), (1, 2, 1)), "admits no labels"),
    # over q = 11 the fifth roots of unity are Frobenius-fixed, and the
    # inverse of 2/5 is 3/5
    (SP2_Q11, _orbits((0, 1, 1), (1, 5, 1), (2, 5, 1), (4, 5, 2)), "inversion-closed"),
    (SP2_Q11, _orbits((0, 1, 4)), "fills dimension 4"),
])
def test_class_construction_rejections(g, orbits, message):
    # every rejection SemisimpleClass makes itself, on orbits given directly
    with pytest.raises(InputError, match=message):
        SemisimpleClass(g, orbits)


# listings not in normal form, one per way of leaving it: the class puts
# each in normal form, so it equals the class parsed from the canonical
# listing.  Over q = 5 the orbit of 1/3 is {1/3, 2/3}, stored by 1/3.
@pytest.mark.parametrize("triples, minus, listing", [
    (((0, 1, 1), (2, 3, 1)), None, [("0/1", 1), ("1/3", 1)]),
    (((0, 1, 1), (0, 1, 2)), None, [("0/1", 3)]),
    (((1, 2, 2), (0, 1, 1)), 1, [("0/1", 1), ("1/2", 2)]),
    (((0, 2, 3),), None, [("0/1", 3)]),
    (((0, 1, 1), (2, 4, 2)), -1, [("0/1", 1), ("1/2", 2)]),
], ids=["least orbit representative", "duplicate orbit", "sorted", "stored as 0/1", "reduced"])
def test_class_puts_its_orbits_in_normal_form(triples, minus, listing):
    cls = SemisimpleClass(SP1_Q5, _orbits(*triples), None, minus)
    assert cls == _cls("sp", 1, 5, listing, minus=minus)


def test_galois_stabilizer_examples():
    s = _cls("sp", 2, 7, [("0/1", 5)])
    field = galois_stabilizer(s)
    assert field.d == 1 and field.degree == 1

    # q = 11 = 1 mod 5: fifth roots split into singleton orbits
    s = _cls("sp", 2, 11, [("0/1", 1), ("1/5", 1), ("2/5", 1), ("3/5", 1), ("4/5", 1)])
    field = galois_stabilizer(s)
    assert field.d == 5 and sorted(field.stab) == [1, 2, 3, 4]
    assert field.degree == 1

    s = _cls("sp", 2, 11, [("0/1", 3), ("1/5", 1), ("4/5", 1)])
    field = galois_stabilizer(s)
    assert sorted(field.stab) == [1, 4]
    assert field.degree == 2


def test_cyclotomic_subfield_validation():
    for d, stab, degree in ((1, (0,), 1), (5, (1, 4), 2), (8, (1, 3), 2), (9, (1, 4, 7), 2),
                            (8, (1, 3, 5, 7), 1)):
        field = CyclotomicSubfield(d, stab)
        assert field.degree == degree and field.phi == degree * len(stab)
    for d, stab in ((8, (1, 3, 5)), (5, (1, 2)), (9, (1, 2)), (6, (1, 3)), (5, (1, 1)),
                    (5, (2, 3)), (0, (0,))):
        with pytest.raises(InputError):
            CyclotomicSubfield(d, stab)


# the class model stores exact ints and tuples, whatever integral values
# and sequences it is given
def test_orbit_stores_an_exact_numerator():
    assert EigenvalueOrbit(True, 2, 2).frac == "1/2"


def test_class_json_prints_ints_not_bools():
    g = GroupSpec(Family.SP, 1, 7)
    cls = SemisimpleClass(g, (EigenvalueOrbit(0, 1, True), EigenvalueOrbit(1, 2, 2)), None, True)
    assert json.dumps(cls.to_dict()) == json.dumps(
        _cls("sp", 1, 7, [("0/1", 1), ("1/2", 2)], minus=1).to_dict())


def test_numpy_orbit_data_reaches_the_field():
    i64 = numpy.int64
    cls = SemisimpleClass(SP1_Q5, tuple(EigenvalueOrbit(i64(a), i64(d), i64(m))
                                        for a, d, m in ((0, 1, 1), (1, 4, 1), (3, 4, 1))))
    want = _cls("sp", 1, 5, [("0/1", 1), ("1/4", 1), ("3/4", 1)])
    assert character_field(SP1_Q5, cls) == character_field(SP1_Q5, want)


def test_class_from_a_list_of_orbits_is_hashable():
    orbits = [EigenvalueOrbit(0, 1, 1), EigenvalueOrbit(1, 4, 1), EigenvalueOrbit(3, 4, 1)]
    cls = SemisimpleClass(SP1_Q5, orbits)
    assert cls.orbits == tuple(orbits)
    assert hash(cls) == hash(SemisimpleClass(SP1_Q5, tuple(orbits)))


def test_cyclotomic_subfield_stores_exact_ints():
    with pytest.raises(InputError, match="d must be an integer, not 4.0"):
        CyclotomicSubfield(4.0, (1, 3))
    field = CyclotomicSubfield(numpy.int64(4), [1, 3])
    want = CyclotomicSubfield(4, (1, 3))
    assert field == want and hash(field) == hash(want) and type(field.d) is int
    assert CharacterField(CyclotomicSubfield(4, (True, 3)), False, 5).to_dict()["stab"] == [1, 3]
    with pytest.raises(InputError, match="stabiliser entry must be an integer, not 1.0"):
        CyclotomicSubfield(4, (1.0, 3))
    # a tuple of exact ints, as galois_stabilizer builds it, is kept, not copied
    stab = (1, 3)
    assert CyclotomicSubfield(4, stab).stab is stab


def test_stabilizer_is_subgroup_and_real():
    for g in (GroupSpec(Family.SP, 1, 5), GroupSpec(Family.SP, 2, 3),
              GroupSpec(Family.SO_ODD, 2, 3), GroupSpec(Family.SO_EVEN, 2, 3, 1),
              GroupSpec(Family.SO_EVEN, 2, 3, -1)):
        for cls in _classes_up_to(g, min(12, g.q + 1)):
            field = galois_stabilizer(cls)
            st = set(field.stab)
            assert 1 % field.d in st
            for x in st:
                for y in st:
                    assert x * y % field.d in st
            # spectra are inversion-closed, so every core field is real
            assert CharacterField(field, False, g.p).is_real


def test_sigma_image():
    m = 20
    s = _cls("sp", 2, 11, [("0/1", 3), ("1/5", 1), ("4/5", 1)])
    image = sigma_image(s, GaloisElement(3, m))
    assert [o.frac for o in image.orbits] == ["0/1", "2/5", "3/5"]
    assert sigma_image(s, GaloisElement(9, m)) == s  # 9 = -1 mod 5
    with pytest.raises(InputError):
        sigma_image(s, GaloisElement(3, 8))


def test_sigma_image_fixes_iff_in_stabilizer():
    for g in (GroupSpec(Family.SP, 1, 5), GroupSpec(Family.SP, 2, 3)):
        for cls in _classes_up_to(g, g.q + 1):
            field = galois_stabilizer(cls)
            d = field.d
            m = 4 * d if d % 2 else 2 * d
            while m % 4:
                m *= 2
            for k in range(1, d + 1):
                from math import gcd
                if gcd(k, m) != 1:
                    continue
                fixed = sigma_image(cls, GaloisElement(k, m)) == cls
                assert fixed == (k % d in field.stab)


def test_enumerate_counts_rank1():
    for q, expected in [(3, 4), (5, 6), (7, 8), (11, 12), (13, 14)]:
        classes = enumerate_classes(GroupSpec(Family.SP, 1, q))
        assert len(classes) == expected


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerate_counts_q_to_the_n(n, q):
    # the dual of SO_2n+1 is Sp_2n, which is simply connected, so it has
    # q^n semisimple classes (Steinberg 1968): the enumeration misses none
    assert len(enumerate_classes(GroupSpec(Family.SO_ODD, n, q))) == q**n


def test_enumerate_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_classes(GroupSpec(Family.SP, 4, 3))


def test_enumerate_deterministic():
    a = _classes_up_to(GroupSpec(Family.SP, 2, 3), 4)
    enumerate_classes.cache_clear()  # else the second call reads the first one's tuple
    b = _classes_up_to(GroupSpec(Family.SP, 2, 3), 4)
    assert a == b


def test_spinor_kernel_membership():
    g = GroupSpec(Family.SO_EVEN, 2, 3, 1)
    minus_one = _cls("so-even", 2, 3, [("1/2", 4)], minus=1)
    assert in_spinor_kernel(g, minus_one)  # 9 = 1 mod 4

    # membership reads the type of the -1 eigenspace, not the form's
    g = GroupSpec(Family.SO_EVEN, 4, 3, 1)
    s = _cls("so-even", 4, 3, [("0/1", 6), ("1/2", 2)], plus=-1, minus=-1)
    assert in_spinor_kernel(g, s)  # 3 = -1 mod 4
    s = _cls("so-even", 4, 3, [("0/1", 6), ("1/2", 2)], plus=1, minus=1)
    assert not in_spinor_kernel(g, s)  # 3 = 3 mod 4 != 1

    g5 = GroupSpec(Family.SO_EVEN, 2, 5, -1)
    s = _cls("so-even", 2, 5, [("0/1", 2), ("1/2", 2)], twist=-1, plus=1, minus=-1)
    assert not in_spinor_kernel(g5, s)  # 5 = 1 mod 4 != -1


def test_involution_class_labels():
    # both eigenspaces: the +1 eigenspace split, the -1 eigenspace of the
    # form's type; a single eigenspace has the form's type
    for twist in (1, -1):
        g = GroupSpec(Family.SO_EVEN, 2, 3, twist)
        classes = {m: involution_class(g, m) for m in (0, 2, 4)}
        assert {m: c.mult_of_minus_one() for m, c in classes.items()} == {0: 0, 2: 2, 4: 4}
        assert {m: (c.plus_type, c.minus_type) for m, c in classes.items()} == {
            0: (twist, None), 2: (1, twist), 4: (None, twist)}
    for minus_dim in (-2, 1, 5, 7):
        with pytest.raises(InputError, match=r"minus_dim must be even and in 0\.\.4"):
            involution_class(GroupSpec(Family.SO_EVEN, 2, 3, 1), minus_dim)
    with pytest.raises(InputError, match="so-even only"):
        involution_class(GroupSpec(Family.SO_ODD, 2, 3), 2)


def test_central_twist_predicates():
    assert has_central_twist_automorphism(GroupSpec(Family.SO_EVEN, 4, 3, 1))  # 81 = 1 mod 4
    assert not has_central_twist_automorphism(GroupSpec(Family.SO_EVEN, 3, 3, 1))  # 27 = 3
    assert not has_central_twist_automorphism(GroupSpec(Family.SP, 2, 7))
    assert not has_central_twist_automorphism(GroupSpec(Family.SO_ODD, 2, 7))


# the central twist acts through the spinor-kernel test and the automorphism
# predicate; the action on the classes waits on split Brauer classes
def test_central_twist_action():
    # twisted form with q = 1 mod 4: the automorphism group is trivial
    assert not has_central_twist_automorphism(GroupSpec(Family.SO_EVEN, 2, 5, -1))

    g = GroupSpec(Family.SO_EVEN, 4, 3, 1)
    assert in_spinor_kernel(g, _cls("so-even", 4, 3, [("0/1", 8)], plus=1))
    g4 = GroupSpec(Family.SO_EVEN, 2, 3, 1)
    s = _cls("so-even", 2, 3, [("0/1", 2), ("1/2", 2)], plus=1, minus=1)
    assert not in_spinor_kernel(g4, s)  # 3 = 3 mod 4

    # only order <= 2 classes of even orthogonal groups are classified, also
    # where the automorphism group is trivial
    with pytest.raises(InputError, match="so-even"):
        in_spinor_kernel(GroupSpec(Family.SP, 2, 7), _cls("sp", 2, 7, [("0/1", 5)]))
    g5 = GroupSpec(Family.SO_EVEN, 2, 5, 1)
    g7 = GroupSpec(Family.SO_EVEN, 1, 7, 1)
    assert has_central_twist_automorphism(g5) and not has_central_twist_automorphism(g7)
    for g_, s4 in ((g5, _cls("so-even", 2, 5, [("1/3", 2)])),
                   (g7, _cls("so-even", 1, 7, [("1/3", 1), ("2/3", 1)]))):
        with pytest.raises(InputError, match="order"):
            in_spinor_kernel(g_, s4)


def test_class_lists_are_pinned(capsys):
    # the `classes` lines of the 48 admitted groups with n <= 2, byte for
    # byte: neither the normal form nor the enumeration order may move
    for family, twists in (("sp", (1,)), ("so-odd", (1,)), ("so-even", (1, -1))):
        for n in (1, 2):
            for q in (3, 5, 7, 9, 11, 13):
                for twist in twists:
                    assert cli.main(["classes", "--family", family, "--n", str(n), "--q", str(q),
                                     "--twist", str(twist)]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1674
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4db4cf3ca1619406e69b94094c46175085d6015fa1be769d67db2c34c7d0950c")


def test_class_json_with_a_non_positive_multiplicity_is_refused(capsys):
    # another entry naming the same orbit does not make mult <= 0 legal
    for first, mult in ((4, 0), (6, -2)):
        data = {"family": "so-odd", "n": 2, "q": 5,
                "orbits": [{"frac": "0/1", "mult": first}, {"frac": "0/1", "mult": mult}]}
        assert cli.main(["field", "--class", json.dumps(data)]) == 2
        assert capsys.readouterr().err == "invalid input: multiplicity must be positive\n"


def test_roundtrip_json():
    for cls in _classes_up_to(GroupSpec(Family.SP, 2, 3), 4):
        assert class_from_dict(cls.to_dict()) == cls


GROUPS = [GroupSpec(family, n, q, twist)
          for family in Family
          for twist in ((1, -1) if family is Family.SO_EVEN else (1,))
          for n in (1, 2)
          for q in (3, 5, 7, 9)]


def _orbit_by_membership(a, d, q):
    seen = []
    x = a % d
    while x not in seen:
        seen.append(x)
        x = x * q % d
    return seen


def _stabilizer_by_power_images(cls):
    # reference: for every unit k, the orbit multiset of the k-th power of
    # the class, each orbit by its least representative, against the class
    q, d = cls.group.q, order_of(cls)
    base = {(o.num, o.den): o.mult for o in cls.orbits}
    stab = []
    for k in range(1, d + 1):
        if gcd(k, d) != 1:
            continue
        image = {}
        for o in cls.orbits:
            key = (min(_orbit_by_membership(k * o.num, o.den, q)), o.den)
            image[key] = image.get(key, 0) + o.mult
        if image == base:
            stab.append(k % d)
    return d, sorted(set(stab))


def test_galois_stabilizer_against_power_images():
    for g in GROUPS:
        for cls in _classes_up_to(g, 2 * g.q + 2):
            field = galois_stabilizer(cls)
            assert (field.d, list(field.stab)) == _stabilizer_by_power_images(cls), cls


@given(st.sampled_from(GROUPS), st.data(), st.integers(1, 10**6))
@settings(max_examples=300, deadline=None)
def test_enumerated_class_properties(g, data, k):
    cls = data.draw(st.sampled_from(_classes_up_to(g, g.q + 1)))
    assert class_from_dict(cls.to_dict()) == cls
    field = galois_stabilizer(cls)
    d = field.d
    assert g.q % d in field.stab and -1 % d in field.stab
    m = 4 * d // gcd(4, d)
    assume(gcd(k, m) == 1)
    assert (sigma_image(cls, GaloisElement(k % m, m)) == cls) == (k % d in field.stab)


# Classes of order up to 10**12, outside the reach of enumerate_classes and of
# the per-k oracle, built by the test's own arithmetic: an order D from known
# prime powers, a prime q whose residue mod D has order dividing 1, 2, 3, 4
# or 6 (so that Frobenius orbits stay short), eigenvalues a/e with e | D.
# Only the search for q uses the library, through is_prime (checked against
# a sieve in test_groups.py).
SMALL_PRIMES = [p for p in range(2, 100) if all(p % r for r in range(2, p))]


def _crt(residues):
    r, m = 0, 1
    for a, n in residues:
        r += m * ((a - r) * pow(m, -1, n) % n)
        m *= n
    return r, m


@st.composite
def large_order_classes(draw):
    primes = draw(st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=7, unique=True))
    powers = {p: draw(st.integers(1, 3)) for p in primes}
    D = prod(p**k for p, k in powers.items())
    assume(D <= 10**12)
    residues = []
    for p, k in powers.items():
        pk = p**k
        phi = pk - pk // p
        j = draw(st.sampled_from([j for j in (1, 2, 3, 4, 6) if phi % j == 0]))
        x = draw(st.integers(1, pk - 1).filter(lambda x: x % p))
        residues.append((pow(x, phi // j, pk), pk))
    r, _ = _crt(residues)
    q = next((c for c in range(r, r + 3000 * D, D) if c >= 3 and is_prime(c)), None)
    assume(q is not None)

    orbits = {}  # representative (a, e) -> multiplicity
    for _ in range(draw(st.integers(1, 3))):
        e = prod(p**draw(st.integers(0, k)) for p, k in powers.items())
        if e < 3:
            continue
        a = draw(st.integers(1, e - 1))
        while gcd(a, e) != 1:
            a += 1
        mult = draw(st.integers(1, 2))
        for b in {min(_orbit_by_membership(a, e, q)), min(_orbit_by_membership(e - a, e, q))}:
            orbits[(b, e)] = orbits.get((b, e), 0) + mult
    assume(orbits)
    rest = sum(m * len(_orbit_by_membership(a, e, q)) for (a, e), m in orbits.items())

    family = draw(st.sampled_from(list(Family)))
    m1 = draw(st.sampled_from([1, 3] if family is Family.SP else [0, 2]))
    mm1 = draw(st.sampled_from([0, 2]))
    n = (rest + m1 + mm1) // 2
    data = {"family": family.value, "n": n, "q": q,
            "orbits": [{"frac": f"{a}/{e}", "mult": m} for (a, e), m in orbits.items()]
            + [{"frac": "0/1", "mult": m1}] * (m1 > 0) + [{"frac": "1/2", "mult": mm1}] * (mm1 > 0)}
    legal = []
    for twist in ((1, -1) if family is Family.SO_EVEN else (1,)):
        for plus in (None, 1, -1):
            for minus in (None, 1, -1):
                try:
                    legal.append(class_from_dict({**data, "twist": twist,
                                                  "plus_type": plus, "minus_type": minus}))
                except InputError:
                    pass
    assume(legal)
    cls = draw(st.sampled_from(legal))
    d = lcm(*(e for _, e in orbits), 2 if mm1 else 1)
    phi = d
    for p in SMALL_PRIMES:
        if d % p == 0:
            phi = phi // p * (p - 1)
    return cls, d, phi


def _unit(data, m):
    return data.draw(st.integers(1, m - 1).filter(lambda k: gcd(k, m) == 1))


@given(large_order_classes(), st.data())
@settings(max_examples=150, deadline=None)
def test_stabilizer_at_large_order(sample, data):
    cls, d, phi = sample
    field = galois_stabilizer(cls)
    stab = set(field.stab)
    assert field.d == d == order_of(cls) and len(stab) == len(field.stab)
    # a subgroup of the units mod d, of index the degree
    assert 1 % d in stab and all(gcd(k, d) == 1 for k in stab)
    assert all(x * y % d in stab for x in stab for y in stab)
    assert field.degree * len(stab) == phi
    # every member fixes the class, and a random unit fixes it iff it is a member
    m = 4 * d // gcd(4, d)
    for k in stab:
        lift = next(c for c in range(k, m + k + d, d) if gcd(c, m) == 1)
        assert sigma_image(cls, GaloisElement(lift, m)) == cls
    k = _unit(data, m)
    assert (sigma_image(cls, GaloisElement(k, m)) == cls) == (k % d in stab)


@given(large_order_classes(), st.data())
@settings(max_examples=100, deadline=None)
def test_action_law_at_large_order(sample, data):
    cls, d, _ = sample
    m = 4 * d // gcd(4, d)
    sigma, tau = GaloisElement(_unit(data, m), m), GaloisElement(_unit(data, m), m)
    sigma_tau = GaloisElement(sigma.k * tau.k % m, m)
    assert sigma_image(cls, sigma_tau) == sigma_image(sigma_image(cls, tau), sigma)


@pytest.mark.parametrize("q, frac", [(7, "1/7"), (7, "3/14"), (9, "1/3")])
def test_class_from_dict_rejects_orders_divisible_by_p(q, frac):
    data = {"family": "sp", "n": 1, "q": q,
            "orbits": [{"frac": "0/1", "mult": 1}, {"frac": frac, "mult": 2}]}
    with pytest.raises(InputError, match="coprime to p"):
        class_from_dict(data)
