import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdlab import arith
from gcdlab.arith import (
    _MR_TIERS,
    _TRIAL_PRIMES,
    _TRIAL_PRODUCT,
    TRIAL_LIMIT,
    FactoredNat,
    _iroot,
    _miller_rabin,
    divisors,
    factorize,
    is_prime,
    is_squarefree,
    primes_up_to,
    primorial,
    radical,
    rational_valuations,
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


def assert_canonical(n, factors):
    """The invariant oracle: sorted distinct primes, exponents >= 1, product n."""
    primes = [p for p, _ in factors]
    assert primes == sorted(set(primes)), (n, factors)
    assert all(e >= 1 and is_prime(p) for p, e in factors), (n, factors)
    assert math.prod(p**e for p, e in factors) == n, (n, factors)


# the primes just below and just above the trial-division bound, and larger ones
BELOW = [p for p in range(TRIAL_LIMIT - 200, TRIAL_LIMIT + 1) if is_prime(p)]
ABOVE = [p for p in range(TRIAL_LIMIT + 1, TRIAL_LIMIT + 400) if is_prime(p)]
LARGE = [10007, 65537, 104729, 999983, 1000003, 2147483647]


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
    # both prime factors exceed 10^6, far past the trial bound: Brent splitting
    p, q = 1000003, 1000033
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    assert factorize(p * p).factors == ((p, 2),)


@pytest.mark.slow
def test_roundtrip_exhaustive_to_one_million():
    # factorize builds its FactoredNat without re-checking primality, so the
    # whole invariant is checked here, against the sieve
    primes = set(primes_up_to(10**6))
    for n in range(1, 10**6 + 1):
        factors = factorize(n).factors
        prod = 1
        last = 1
        for p, e in factors:
            if p <= last or e < 1 or p not in primes:
                pytest.fail(f"factorize({n}) is not canonical: {factors}")
            last = p
            prod *= p**e
        if prod != n:
            pytest.fail(f"factorize({n}) reconstructs {prod}")


def test_factorize_semiprimes_near_trial_limit():
    near = BELOW[-12:] + ABOVE[:12]
    for p in near:
        for q in near:
            n = p * q
            assert factorize(n).factors == trial_division(n)
    for k in (1, 5, 30):  # with trial primes in front of the split factors, or none
        n = k * ABOVE[0] * ABOVE[-1]
        assert factorize(n).factors == trial_division(n)


def test_factorize_around_trial_limit_squared():
    sq = TRIAL_LIMIT * TRIAL_LIMIT
    for n in range(sq - 300, sq + 301):
        assert factorize(n).factors == trial_division(n)
    for n in (ABOVE[0] ** 2 - 1, ABOVE[0] ** 2, ABOVE[0] ** 2 + 1):
        assert factorize(n).factors == trial_division(n)


def test_factorize_powers_and_triples_above_trial_limit():
    for p in [p for p in range(TRIAL_LIMIT + 1, 2 * TRIAL_LIMIT) if is_prime(p)]:
        assert factorize(p * p).factors == ((p, 2),)
        assert factorize(p**3).factors == ((p, 3),)
        assert factorize(12 * p**3).factors == ((2, 2), (3, 1), (p, 3))
    for p, q, r in zip(ABOVE, ABOVE[1:], ABOVE[2:8]):
        assert factorize(p * q * r).factors == trial_division(p * q * r)
        assert factorize(p * p * r).factors == ((p, 2), (r, 1))
    for p in LARGE:
        assert factorize(p**2).factors == ((p, 2),)
        assert factorize(p**3).factors == ((p, 3),)
        n = ABOVE[0] * p * LARGE[0]
        assert_canonical(n, factorize(n).factors)
        assert {q for q, _ in factorize(n).factors} == {ABOVE[0], p, LARGE[0]}


def test_factorize_random_large_values_are_canonical():
    rng = random.Random(23)
    for _ in range(400):
        n = rng.randint(10**11, 10**15)
        assert_canonical(n, factorize(n).factors)


def test_factorize_never_grows_the_sieve():
    # the sieve is built once, up to TRIAL_LIMIT; factorizing past it and a
    # larger primes_up_to leave it as it is
    for n in (1000003 * 1000033, 10**15 + 37, 2**61 - 1, 7 * 999983**2):
        factorize(n)
    assert len(arith._sieve) == TRIAL_LIMIT + 1
    assert len(primes_up_to(10**6)) == 78498
    assert len(arith._sieve) == TRIAL_LIMIT + 1


def test_valuation_examples():
    assert factorize(12).valuation(2) == 2
    assert factorize(7).valuation(5) == 0
    assert factorize(54).valuation(3) == 3


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=10**9),
    st.integers(min_value=1, max_value=10**9),
    st.sampled_from([2, 3, 5, 7, 11]),
)
def test_valuation_additive(m, n, p):
    assert factorize(m * n).valuation(p) == factorize(m).valuation(p) + factorize(n).valuation(p)


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


def test_divisors_sorted_and_complete():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 10**5)
        divs = divisors(n)
        assert list(divs) == sorted(divs)
        assert set(divs) == {d for d in range(1, n + 1) if n % d == 0}


def test_factorize_result_equals_validated_construction():
    for n in (1, 12, 2310, 1000003 * 1000033, 2**61 - 1):
        f = factorize(n)
        assert_canonical(n, f.factors)
        g = FactoredNat(n, f.factors)
        assert f == g and hash(f) == hash(g) and not f < g
        assert {f: 1}[g] == 1


def test_builders_equal_validated_construction():
    # primorial and radical build their FactoredNat without factorize
    rng = random.Random(67)
    values = list(range(1, 300)) + [rng.randint(1, 10**12) for _ in range(300)]
    built = [primorial(x) for x in range(1, 300)] + [radical(n) for n in values]
    for f in built:
        assert_canonical(f.value, f.factors)
        g = FactoredNat(f.value, f.factors)
        assert f == g and hash(f) == hash(g) and f.factors == factorize(f.value).factors


def test_ordering_follows_value():
    assert sorted([factorize(10), factorize(3), factorize(7)])[0].value == 3


def test_is_prime_against_sieve():
    primes = set(primes_up_to(2000))
    for n in range(2000):
        assert is_prime(n) == (n in primes)


# The least strong pseudoprime to the first k prime bases, psi_k, for k = 1..7,
# 9 and 12 (Jaeschke 1993; Sorenson-Webster 2017).  Each is composite and
# decides where the witness set of the next tier starts.
PSEUDOPRIMES = [
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
]
PSI_13 = 3317044064679887385961981

# The largest prime below each tier bound of _MR_TIERS, in order (checked
# with an independent prime test; the ones below 10**13 are re-checked here
# by trial division).
PRIMES_BELOW_TIERS = [
    1373639,
    25325981,
    3215031749,
    2152302898729,
    3474749660329,
    341550071728289,
    3825123056546412979,
    318665857834031151167441,
    3317044064679887385961813,
]


def strong_probable_prime(n, a):
    """n passes the strong Fermat test to base a (the definition)."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x == 1 or any(pow(x, 1 << i, n) == n - 1 for i in range(r))


def odd_trial_prime(n):
    """Primality by trial division by 2 and the odd numbers up to sqrt(n)."""
    return n > 1 and n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def test_each_tier_bound_passes_its_own_bases():
    # each tier's bound is a composite that passes all of the tier's bases,
    # so the bound is exclusive and a smaller witness set would not do
    for bound, bases in _MR_TIERS:
        assert bound in PSEUDOPRIMES + [PSI_13]
        assert all(strong_probable_prime(bound, a) for a in bases)
    assert [bound for bound, _ in _MR_TIERS] == sorted(bound for bound, _ in _MR_TIERS)


def test_pseudoprimes_of_every_tier_are_composite():
    for n in PSEUDOPRIMES:
        assert not is_prime(n), n
        assert not _miller_rabin(n), n
        factors = factorize(n).factors
        assert_canonical(n, factors)
        assert len(factors) > 1 and all(is_prime(p) for p, _ in factors), (n, factors)


def test_psi_13_is_not_claimed_prime():
    assert all(strong_probable_prime(PSI_13, a) for a in _MR_TIERS[-1][1])
    with pytest.raises(ValueError, match="cannot prove .* prime"):
        is_prime(PSI_13)
    with pytest.raises(ValueError, match="cannot prove .* prime"):
        factorize(PSI_13)


def test_composites_above_psi_13_still_factor():
    # a composite verdict is a proof at any size; the factors are proven prime
    m31, m61 = 2**31 - 1, 2**61 - 1
    for n in (m31 * m31 * 1000003, m61 * m31, 2**100 + 1):
        assert n >= PSI_13
        assert not is_prime(n)
    assert factorize(m31 * m31 * 1000003).factors == ((1000003, 1), (m31, 2))


def test_prime_powers_above_the_trial_bound_factor_promptly():
    # rho alone needs about sqrt(p) steps to split p**k; a regression would
    # hang, so each case runs in its own interpreter with a timeout
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    m31, m61 = 2**31 - 1, 2**61 - 1
    cases = {
        m61**2 * 1000003: ((1000003, 1), (m61, 2)),
        m61**3: ((m61, 3),),
        m31**5 * m61**2: ((m31, 5), (m61, 2)),
        2053**12 * 2063**6: ((2053, 12), (2063, 6)),
    }
    for n, expect in cases.items():
        code = f"from gcdlab.arith import factorize\nprint(factorize({n}).factors)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
            check=True, timeout=20,
        )
        assert proc.stdout == f"{expect}\n", n


def test_iroot_is_the_exact_floor():
    rng = random.Random(71)
    for k in (2, 3, 5, 7, 13):
        for _ in range(200):
            n = rng.randint(1, 1 << rng.randint(1, 300))
            r = _iroot(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k)
        assert _iroot(1, k) == 1
        for r in (2, 2**61 - 1, 3**50):
            assert _iroot(r**k, k) == r and _iroot(r**k - 1, k) == r - 1


def test_primes_just_below_each_tier_bound_stay_prime():
    assert len(PRIMES_BELOW_TIERS) == len(_MR_TIERS)
    for p, (bound, _) in zip(PRIMES_BELOW_TIERS, _MR_TIERS):
        assert p < bound
        if p < 10**13:
            assert odd_trial_prime(p), p
        assert is_prime(p) and _miller_rabin(p), p
        assert factorize(p).factors == ((p, 1),)
        assert factorize(2039 * p).factors == ((2039, 1), (p, 1))


def test_factorize_by_the_trial_gcd_edge_cases():
    big = [ABOVE[0], ABOVE[-1], LARGE[-1]]
    assert factorize(1).factors == ()
    assert factorize(2**200).factors == ((2, 200),)
    for p in big:
        assert factorize(2039**5 * p).factors == ((2039, 5), (p, 1))
    every = tuple((p, 1) for p in _TRIAL_PRIMES)
    assert factorize(_TRIAL_PRODUCT).factors == every
    for p in big:
        assert factorize(_TRIAL_PRODUCT * p).factors == every + ((p, 1),)
    assert factorize(_TRIAL_PRODUCT**2 * 2039).factors == tuple(
        (p, 3 if p == 2039 else 2) for p in _TRIAL_PRIMES
    )
    # the trial part is one prime near TRIAL_LIMIT: the gcd is that prime (or
    # 1, when a small n leaves it to the cofactor) and the loop never runs
    for q in (2029, 2039):
        for k in (1, 4):
            for rest in (1, ABOVE[0], ABOVE[0] * ABOVE[1], LARGE[-1] ** 2):
                n = q**k * rest
                assert factorize(n).factors == ((q, k),) + factorize(rest).factors
                assert_canonical(n, factorize(n).factors)
        for k in (2, 3, 6, 1024):
            n = k * q * ABOVE[0]
            assert factorize(n).factors == trial_division(n)
    # no trial factor at all
    for n in (ABOVE[0] * ABOVE[1], ABOVE[0] ** 2, ABOVE[3] ** 3):
        assert math.gcd(n, _TRIAL_PRODUCT) == 1
        assert factorize(n).factors == trial_division(n)
    for n in (LARGE[3] * LARGE[4], LARGE[-1], LARGE[-1] ** 2 * LARGE[0]):
        assert math.gcd(n, _TRIAL_PRODUCT) == 1
        assert_canonical(n, factorize(n).factors)


def test_factorize_prime_squares_at_every_bit_length():
    # the gcd for an n of bit length b takes the trial primes up to
    # 2**ceil(b/2); the square of the largest prime p with p * p < 2**b, or
    # p times the prime before it, puts its primes at the top of that range
    for b in range(3, 30):
        r = math.isqrt((1 << b) - 1)
        below = [p for p in range(r, 1, -1) if is_prime(p)][:2]
        for n in (below[0] ** 2, below[0] * below[-1], 3 * below[0] ** 2):
            assert factorize(n).factors == trial_division(n), (b, n)
