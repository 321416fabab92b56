import pytest
from hypothesis import given, strategies as st

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
    sqrt_p_sign,
)
from charfield.groups import is_prime

ODD_PRIMES_50 = [p for p in range(3, 51) if is_prime(p)]


def test_legendre_values():
    assert legendre(1, 5) == 1
    assert legendre(2, 7) == 1  # 7 = -1 mod 8
    assert legendre(3, 7) == -1  # squares mod 7 are {1,2,4}
    assert legendre(14, 7) == 0


def test_legendre_rejects_bad_modulus():
    with pytest.raises(InputError):
        legendre(2, 9)
    with pytest.raises(InputError):
        legendre(2, 2)


@given(st.integers(1, 100), st.integers(1, 100),
       st.sampled_from([p for p in range(3, 101) if is_prime(p)]))
def test_legendre_multiplicative(a, b, p):
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_legendre_multiplicative_exhaustive():
    for p in [p for p in range(3, 101) if is_prime(p)]:
        table = [legendre(a, p) for a in range(p)]
        for a in range(1, 101):
            for b in range(1, 101):
                assert table[a * b % p] == table[a % p] * table[b % p]


def test_signed_prime():
    # omega*p, the square of the Gauss sum, as an int
    for p, omega_p in ((3, -3), (5, 5), (7, -7), (13, 13), (103, -103)):
        assert signed_prime(p) == omega_p and type(signed_prime(p)) is int
    with pytest.raises(InputError):
        signed_prime(15)


def test_is_square_in_fq():
    assert is_square_in_fq(2, 9)  # square field
    assert is_square_in_fq(2, 7)
    assert not is_square_in_fq(3, 7)
    with pytest.raises(InputError):
        is_square_in_fq(7, 7)


def test_is_square_in_square_field_always():
    for q in (9, 25, 49, 121):
        p = round(q ** 0.5)
        for k in range(1, q):
            if k % p:
                assert is_square_in_fq(k, q)


def test_galois_element_invariants():
    with pytest.raises(InputError):
        GaloisElement(3, 12)  # not coprime
    with pytest.raises(InputError):
        GaloisElement(1, 6)  # modulus not divisible by 4
    for m in (0, -4, -12):  # modulus not positive
        with pytest.raises(InputError):
            GaloisElement(1, m)
        with pytest.raises(InputError):
            galois_from_prime_power(PrimePowerAction(3, 1), m)


def test_gauss_sqrt_sign():
    p = 5
    assert gauss_sqrt_sign(GaloisElement(11, 20), p) == 1  # 11 = 1 mod 5
    assert gauss_sqrt_sign(GaloisElement(2 + 5 * 4 + 1, 20), p) == legendre(3, 5)
    assert gauss_sqrt_sign(GaloisElement(7, 20), p) == legendre(2, 5) == -1
    assert gauss_sqrt_sign(GaloisElement(9, 20), p) == 1  # 9 = 4 = 2^2 mod 5
    with pytest.raises(InputError):
        gauss_sqrt_sign(GaloisElement(5, 12), 5)


def test_sqrt_p_sign_identity():
    for p in (3, 5, 7, 11):
        assert sqrt_p_sign(GaloisElement(1, 4 * p), p) == 1


def test_sqrt_p_sign_odd_ell_examples():
    h = PrimePowerAction(3, 1)
    assert sqrt_p_sign(galois_from_prime_power(h, 4 * 7), 7) == legendre(7, 3) == 1
    assert sqrt_p_sign(galois_from_prime_power(h, 4 * 5), 5) == legendre(5, 3) == -1


def _sqrt_p_sign_closed_form(h: PrimePowerAction, p: int) -> int:
    # the statement being verified: r even fixes sqrt(p); for odd ell and
    # odd r the sign is (p/ell); for ell = 2 the sign on sqrt(omega*p) is
    # driven by p mod 8 and the i-action corrects back to sqrt(p)
    if h.ell != 2:
        if h.r % 2 == 0:
            return 1
        return legendre(p, h.ell)
    omega_sign = 1 if p % 8 in (1, 7) else (-1) ** h.r
    if signed_prime(p) == p:
        return omega_sign
    return omega_sign * h.i_sign


def test_sqrt_p_sign_matches_closed_forms():
    for p in ODD_PRIMES_50:
        for ell in (2, 3, 5, 7, 11, 13):
            if ell == p:
                continue
            for r in range(4):
                signs = (1, -1) if ell == 2 else (0,)
                for isign in signs:
                    h = PrimePowerAction(ell, r, isign)
                    sigma = galois_from_prime_power(h, 4 * p)
                    assert sqrt_p_sign(sigma, p) == _sqrt_p_sign_closed_form(h, p), (p, ell, r, isign)


def test_prime_power_action_forced_i_sign():
    assert PrimePowerAction(3, 1).i_sign == -1  # 3 = 3 mod 4
    assert PrimePowerAction(3, 2).i_sign == 1
    assert PrimePowerAction(5, 1).i_sign == 1
    with pytest.raises(InputError):
        PrimePowerAction(3, 1, 1)


def test_galois_from_prime_power_examples():
    assert galois_from_prime_power(PrimePowerAction(3, 0), 20).k == 1
    assert galois_from_prime_power(PrimePowerAction(2, 1, 1), 12).k == 5
    assert galois_from_prime_power(PrimePowerAction(3, 1), 4).k == 3


def test_gauss_sum_exact_examples():
    assert gauss_sum_exact(5, 1) == (5, 1)
    assert gauss_sum_exact(3, 1) == (-3, 1)
    assert gauss_sum_exact(5, 2) == (5, -1)
    # p past the cost cap is a budget refusal, as at every other cap
    with pytest.raises(BudgetExceededError, match="exceeds the bound 101"):
        gauss_sum_exact(103, 1)


def test_gauss_sum_exact_against_legendre():
    for p in ODD_PRIMES_50:
        for k in range(1, p):
            square, sign = gauss_sum_exact(p, k)
            assert square == signed_prime(p)
            assert sign == legendre(k, p)
            sigma = GaloisElement(_lift(k, p), 4 * p)
            assert sign == gauss_sqrt_sign(sigma, p)


def _lift(k: int, p: int) -> int:
    # lift k mod p to something coprime to 4p
    for t in range(k, k + 4 * p, p):
        if t % 2:
            return t
    raise AssertionError


@pytest.mark.parametrize("call, message", [
    (lambda: PrimePowerAction(9, 1), "9 is not prime"),
    (lambda: PrimePowerAction(3, -1), "r must be >= 0"),
    (lambda: PrimePowerAction(2, 1, 0), "i_sign must be"),
    (lambda: sqrt_p_sign(GaloisElement(1, 12), 5), "divisible by 4p"),
    (lambda: sqrt_p_sign(GaloisElement(1, 20), 3), "divisible by 4p"),
    (lambda: gauss_sum_exact(5, 10), "coprime to p"),
])
def test_rejections(call, message):
    with pytest.raises(InputError, match=message):
        call()
