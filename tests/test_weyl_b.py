import re

import pytest
from hypothesis import given, settings, strategies as st

from charfield.errors import InputError
from charfield.groups import Family, GroupSpec
from charfield.weyl_b import (
    SeriesDescriptor,
    SignedPerm,
    generator,
    identity,
    length,
    lengths_by_bfs,
    relative_weyl,
    special_element,
)


def test_generator_examples():
    s2 = generator(2, 2)
    assert s2.images == (1, -2)
    s1 = generator(3, 1)
    assert s1.images == (2, 1, 3)
    for n in range(1, 5):
        for i in range(1, n + 1):
            s = generator(n, i)
            assert s * s == identity(n)


def test_generator_range():
    with pytest.raises(InputError):
        generator(3, 4)
    with pytest.raises(InputError):
        generator(3, 0)


@st.composite
def signed_perms(draw, n=4):
    perm = draw(st.permutations(list(range(1, n + 1))))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return SignedPerm([s * v for s, v in zip(signs, perm)])


@given(signed_perms(), signed_perms(), signed_perms())
@settings(max_examples=50)
def test_group_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * identity(4) == a == identity(4) * a


def test_special_elements():
    t1 = special_element(3, "t", 1)
    assert t1.images == (-1, 2, 3)
    u1 = special_element(3, "u", 1)
    assert u1.images == (-1, 2, -3)
    with pytest.raises(InputError):
        special_element(3, "u", 3)
    with pytest.raises(InputError):
        special_element(3, "t", 4)


def test_length_identity():
    for n in range(1, 5):
        assert length(identity(n)) == 0


def test_length_formulas():
    # reduced words: t_m uses 2(n-m)+1 letters, u_m uses 2(n-m)+2
    for n in range(2, 9):
        for m in range(1, n + 1):
            assert length(special_element(n, "t", m)) == 2 * (n - m) + 1
        for m in range(1, n):
            assert length(special_element(n, "u", m)) == 2 * (n - m) + 2


def test_length_parities():
    for n in range(2, 9):
        for m in range(1, n):
            assert length(special_element(n, "t", m)) % 2 == 1
            assert length(special_element(n, "u", m)) % 2 == 0


def test_length_vs_bfs_small():
    for n in (1, 2, 3, 4):
        table = lengths_by_bfs(n)
        assert len(table) == 2**n * _factorial(n)
        for w, d in table.items():
            assert length(w) == d


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_u1_length_six():
    assert length(special_element(3, "u", 1)) == 6


SAMPLE_DESCRIPTORS = [
    SeriesDescriptor(GroupSpec(Family.SP, 2, 3), True, 2, 1, 1),
    SeriesDescriptor(GroupSpec(Family.SP, 3, 3), True, 3, 2, 1),
    SeriesDescriptor(GroupSpec(Family.SP, 1, 3), True, 1, 0, 1),
    SeriesDescriptor(GroupSpec(Family.SP, 4, 3), False, 2, 1, 1),
    SeriesDescriptor(GroupSpec(Family.SO_EVEN, 3, 3, 1), True, 3, 1, 2),
    SeriesDescriptor(GroupSpec(Family.SO_EVEN, 3, 3, -1), True, 3, 2, 1),
    SeriesDescriptor(GroupSpec(Family.SO_EVEN, 2, 3, 1), True, 2, 0, 2),
    SeriesDescriptor(GroupSpec(Family.SO_EVEN, 4, 3, 1), False, 2, 1, 1),
    SeriesDescriptor(GroupSpec(Family.SO_EVEN, 4, 3, -1), False, 1, 0, 1),
    SeriesDescriptor(GroupSpec(Family.SO_ODD, 2, 3), True, 2, 1, 1),
    SeriesDescriptor(GroupSpec(Family.SO_ODD, 4, 3), False, 2, 2, 0),
]


def _negated(w):
    return tuple(i for i in range(1, w.n + 1) if w(i) < 0)


def test_relative_weyl_table_rows():
    # the complement generator of each row, s_n, t_m or u_m, or None for a
    # trivial complement; the last row is the twisted principal SO8- series
    rows = list(zip(SAMPLE_DESCRIPTORS, [
        generator(2, 2), generator(3, 3), generator(1, 1), special_element(4, "t", 2),
        special_element(3, "u", 1), special_element(3, "u", 1), special_element(2, "u", 1),
        special_element(4, "u", 2), special_element(4, "u", 1), None, None,
    ], strict=True))
    rows.append((SeriesDescriptor(GroupSpec(Family.SO_EVEN, 4, 3, -1), True, 4, 2, 2),
                 special_element(4, "u", 1)))
    for desc, w in rows:
        rel = relative_weyl(desc)
        if w is None:
            assert (rel.c_flips, rel.c_length_parity) == ((), None), desc
        else:
            assert rel.c_flips == _negated(w) != (), desc
            assert rel.c_length_parity == ("odd" if desc.group.family is Family.SP else "even")


def test_relative_weyl_parities():
    # orthogonal complements are even, symplectic ones odd: this is the
    # whole source of the field growth asymmetry
    for desc in SAMPLE_DESCRIPTORS:
        rel = relative_weyl(desc)
        if not rel.c_flips:
            continue
        if desc.group.family is Family.SP:
            assert rel.c_length_parity == "odd"
        else:
            assert rel.c_length_parity == "even"
        n = desc.group.n
        w = SignedPerm(-i if i in rel.c_flips else i for i in range(1, n + 1))
        assert rel.c_length_parity == ("odd" if length(w) % 2 else "even")


def test_relative_weyl_errors():
    # the five rows of the table that do not exist, in the order they are checked
    sp8, so8, so2 = (GroupSpec(Family.SP, 4, 3), GroupSpec(Family.SO_EVEN, 4, 3),
                     GroupSpec(Family.SO_EVEN, 1, 3))
    for desc, message in [
        (SeriesDescriptor(so2, True, 1, 0, 1), "even orthogonal table needs n >= 2"),
        (SeriesDescriptor(so8, True, 4, 4, 0), "principal so-even row needs b >= 1"),
        # a non-principal row needs a split torus for t_m or u_m to act on
        (SeriesDescriptor(so8, False, 0, 0, 0), "u_m needs 1 <= m < n"),
        (SeriesDescriptor(sp8, True, 4, 4, 0), "symplectic principal row needs b >= 1"),
        (SeriesDescriptor(sp8, False, 0, 0, 0), "t_m needs 1 <= m <= n"),
    ]:
        with pytest.raises(InputError, match=re.escape(message)):
            relative_weyl(desc)


def test_descriptor_invariants():
    sp4, sp8 = GroupSpec(Family.SP, 2, 3), GroupSpec(Family.SP, 4, 3)
    for g, args, message in [
        (sp4, (True, 2, 1, 2), "a, b >= 0 with a [+] b = m"),
        (sp4, (False, 1, 1, 0), "m <= n - 2"),
        (sp8, (False, 2.0, 1.0, 1.0), "m must be an integer"),
        (sp8, (False, "2", "1", "1"), "m must be an integer"),
        (sp8, (True, 4, 2, 2.0), "b must be an integer"),
        (sp8, ("no", 4, 2, 2), "principal must be a bool"),
        (sp8, (1, 4, 2, 2), "principal must be a bool"),
    ]:
        with pytest.raises(InputError, match=message):
            SeriesDescriptor(g, *args)


@pytest.mark.parametrize("call, message", [
    (lambda: SignedPerm((1, 1)), "signed permutation"),
    (lambda: SignedPerm((0,)), "signed permutation"),
    (lambda: SignedPerm((1, -3)), "signed permutation"),
    (lambda: SignedPerm((1, 2)) * SignedPerm((1,)), "rank mismatch"),
    (lambda: special_element(3, "v", 1), "kind must be"),
    (lambda: SignedPerm([1.0, 2]), "image must be an integer"),
    (lambda: SignedPerm(["1"]), "image must be an integer"),
    (lambda: special_element(3, "t", 1.0), "m must be an integer"),
    (lambda: generator(3, 1.0), "i must be an integer"),
    (lambda: identity(3.0), "n must be an integer"),
    (lambda: identity(-1), "n must be >= 0"),
    (lambda: lengths_by_bfs(2.0), r"n must be an integer, not 2\.0"),
])
def test_rejections(call, message):
    with pytest.raises(InputError, match=message):
        call()
