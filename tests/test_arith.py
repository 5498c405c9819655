import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdlab.arith import (
    FactoredNat,
    divisors,
    factorize,
    gcd_factored,
    is_prime,
    is_squarefree,
    primes_up_to,
    primorial,
    radical,
    rational_valuations,
    valuation,
)


def trial_division(n):
    """Independent oracle: bare trial division by every integer."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(2310).factors == trial_division(2310)


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_matches_trial_division_sample():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 10**7)
        assert factorize(n).factors == trial_division(n)


def test_factorize_beyond_sieve_range():
    # both prime factors exceed the sieve cap, forcing the splitting path
    p, q = 1000003, 1000033
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    assert factorize(p * p).factors == ((p, 2),)


def test_roundtrip_exhaustive_to_one_million():
    primes_up_to(1000)
    for n in range(1, 10**6 + 1):
        prod = 1
        for p, e in factorize(n).factors:
            prod *= p**e
        if prod != n:
            pytest.fail(f"factorize({n}) reconstructs {prod}")


def test_valuation_examples():
    assert valuation(2, 12) == 2
    assert valuation(5, 7) == 0
    assert valuation(3, 54) == 3
    with pytest.raises(ValueError):
        valuation(4, 12)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=10**9),
    st.integers(min_value=1, max_value=10**9),
    st.sampled_from([2, 3, 5, 7, 11]),
)
def test_valuation_additive(m, n, p):
    assert valuation(p, m * n) == valuation(p, m) + valuation(p, n)


def test_rational_valuations_examples():
    assert rational_valuations(12, 6) == {2: 1}
    assert rational_valuations(3, 6) == {2: -1}
    assert rational_valuations(6, 6) == {}


def test_rational_valuations_get():
    v = rational_valuations(12, 6)
    assert v.get(2, 0) == 1 and v.get(3, 0) == 0 and v.get(97, 0) == 0


def test_primorial_examples():
    assert primorial(1).value == 1
    assert primorial(4).value == 6
    assert primorial(10).value == 210
    assert primorial(30).value == 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29


def test_is_squarefree_examples():
    assert is_squarefree(1)
    assert not is_squarefree(12)
    assert is_squarefree(30)


def test_radical():
    assert radical(1).value == 1
    assert radical(12).value == 6
    assert radical(2**10).value == 2


def test_gcd_via_valuations_matches_euclid():
    rng = random.Random(5)
    for _ in range(10**4):
        m = rng.randint(1, 10**6)
        n = rng.randint(1, 10**6)
        assert gcd_factored(m, n).value == math.gcd(m, n)


def test_divisors_sorted_and_complete():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 10**5)
        divs = divisors(n)
        assert list(divs) == sorted(divs)
        assert set(divs) == {d for d in range(1, n + 1) if n % d == 0}


def test_factored_nat_invariants():
    with pytest.raises(ValueError):
        FactoredNat(12, ((2, 1), (3, 1)))  # product mismatch
    with pytest.raises(ValueError):
        FactoredNat(8, ((2, 0), (4, 1)))  # zero exponent
    with pytest.raises(ValueError):
        FactoredNat(12, ((3, 1), (2, 2)))  # unsorted
    with pytest.raises(ValueError):
        FactoredNat(4, ((4, 1),))  # non-prime key


def test_ordering_follows_value():
    assert sorted([factorize(10), factorize(3), factorize(7)])[0].value == 3


def test_is_prime_against_sieve():
    primes = set(primes_up_to(2000))
    for n in range(2000):
        assert is_prime(n) == (n in primes)
