"""Exact arbitrary-precision arithmetic: primes, factorization, p-adic
valuations, radicals, and primorials.

Everything here is pure and deterministic.  Values are Python ints, so
nothing overflows; factorizations are canonical tuples of (prime, exponent)
pairs sorted by prime.  Factorization trial-divides by the primes up to
TRIAL_LIMIT, then runs Miller-Rabin and Brent's variant of Pollard rho on a
larger cofactor; the cached prime sieve grows only on demand.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "FactoredNat",
    "divisors",
    "factorize",
    "gcd_factored",
    "is_prime",
    "is_squarefree",
    "primes_up_to",
    "primorial",
    "radical",
    "rational_valuations",
    "valuation",
]

# Trial-division bound: a larger cofactor is prime if <= TRIAL_LIMIT**2, else split.
TRIAL_LIMIT = 1 << 11

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_sieve = bytearray(b"\x00\x00\x01\x01")  # _sieve[n] == 1 iff n prime
_sieve_limit = 3
_primes = [2, 3]


def _extend_sieve(limit: int) -> None:
    global _sieve, _sieve_limit, _primes
    limit = max(limit, 2 * _sieve_limit, 1 << 10)
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    _sieve = sieve
    _sieve_limit = limit
    _primes = [i for i, flag in enumerate(sieve) if flag]


def primes_up_to(limit: int) -> list[int]:
    """Sorted list of all primes <= limit (cached sieve, grown on demand)."""
    if limit > _sieve_limit:
        _extend_sieve(limit)
    return _primes[: bisect_right(_primes, limit)]


_TRIAL_PRIMES = tuple(primes_up_to(TRIAL_LIMIT))


def is_prime(n: int) -> bool:
    """Deterministic primality test (sieve lookup, then Miller-Rabin)."""
    if n < 2:
        return False
    if n <= _sieve_limit:
        return bool(_sieve[n])
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent(n: int) -> int:
    """One nontrivial factor of an odd composite n (deterministic schedule)."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
        if g != n:
            return g
        c += 1  # cycle degenerated; retry with the next polynomial


def _split(n: int, acc: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        acc[n] = acc.get(n, 0) + 1
        return
    d = _brent(n)
    _split(d, acc)
    _split(n // d, acc)


@lru_cache(maxsize=1 << 16)
def _factor_int(n: int) -> tuple[tuple[int, int], ...]:
    if n < 1:
        raise ValueError(f"cannot factorize {n}: need n >= 1")
    rem = n
    out = []
    for p in _TRIAL_PRIMES:
        if p * p > rem:
            break
        if rem % p == 0:
            e = 1
            rem //= p
            while rem % p == 0:
                e += 1
                rem //= p
            out.append((p, e))
    if rem > 1:
        if rem <= TRIAL_LIMIT * TRIAL_LIMIT:
            # no prime factor <= min(sqrt(rem), TRIAL_LIMIT), so rem is prime
            out.append((rem, 1))
        else:
            # every prime factor of rem exceeds TRIAL_LIMIT, so out stays sorted
            extra: dict[int, int] = {}
            _split(rem, extra)
            out.extend(sorted(extra.items()))
    return tuple(out)


@dataclass(frozen=True, order=True)
class FactoredNat:
    """A natural number >= 1 carrying its canonical prime factorization.

    Ordering and equality follow the integer value; the factor tuple is
    sorted by prime with all exponents >= 1.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prod = 1
        last = 1
        for p, e in self.factors:
            if e < 1:
                raise ValueError(f"exponent {e} of prime {p} must be >= 1")
            if p <= last:
                raise ValueError("factor tuple must be sorted by distinct primes")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            last = p
            prod *= p**e
        if prod != self.value:
            raise ValueError(f"factors multiply to {prod}, not {self.value}")

    def valuation(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
            if q > p:
                return 0
        return 0

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return str(self.value)


def _trusted(value: int, factors: tuple[tuple[int, int], ...]) -> FactoredNat:
    """A FactoredNat without __post_init__'s checks, for canonical factors."""
    nat = object.__new__(FactoredNat)
    object.__setattr__(nat, "value", value)
    object.__setattr__(nat, "factors", factors)
    return nat


def factorize(n: int | FactoredNat) -> FactoredNat:
    """Canonical factorization of n >= 1 (FactoredNat inputs pass through)."""
    if isinstance(n, FactoredNat):
        return n
    return _trusted(n, _factor_int(n))


def valuation(p: int, n: int | FactoredNat) -> int:
    """v_p(n): the largest k with p^k dividing n."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return factorize(n).valuation(p)


def rational_valuations(a: int | FactoredNat, N: int | FactoredNat) -> dict[int, int]:
    """{p: v_p(a/N)} for every prime where v_p(a) - v_p(N) is nonzero, in
    increasing order of p."""
    a = factorize(a)
    N = factorize(N)
    vals: dict[int, int] = dict(a.factors)
    for p, e in N.factors:
        v = vals.get(p, 0) - e
        if v:
            vals[p] = v
        else:
            vals.pop(p, None)
    return dict(sorted(vals.items()))


def primorial(X: int) -> FactoredNat:
    """Product of all primes <= X (empty product 1 for X < 2)."""
    if X < 1:
        raise ValueError(f"primorial needs X >= 1, got {X}")
    ps = primes_up_to(X)
    prod = 1
    for p in ps:
        prod *= p
    return _trusted(prod, tuple((p, 1) for p in ps))


def is_squarefree(n: int | FactoredNat) -> bool:
    """True iff no prime square divides n."""
    return all(e == 1 for _, e in factorize(n).factors)


def radical(n: int | FactoredNat) -> FactoredNat:
    """rad(n): the product of the distinct primes dividing n."""
    ps = factorize(n).primes()
    prod = 1
    for p in ps:
        prod *= p
    return _trusted(prod, tuple((p, 1) for p in ps))


def gcd_factored(m: int | FactoredNat, n: int | FactoredNat) -> FactoredNat:
    """gcd computed prime-by-prime as min of valuations."""
    m = factorize(m)
    n = factorize(n)
    out = []
    for p, e in m.factors:
        f = n.valuation(p)
        if f:
            out.append((p, min(e, f)))
    prod = 1
    for p, e in out:
        prod *= p**e
    return _trusted(prod, tuple(out))


@lru_cache(maxsize=1 << 16)
def _divisors_int(n: int) -> tuple[int, ...]:
    divs = [1]
    for p, e in _factor_int(n):
        block = list(divs)
        pk = 1
        for _ in range(e):
            pk *= p
            divs.extend(d * pk for d in block)
    divs.sort()
    return tuple(divs)


def divisors(n: int | FactoredNat) -> tuple[int, ...]:
    """All positive divisors of n, sorted ascending."""
    if isinstance(n, FactoredNat):
        n = n.value
    return _divisors_int(n)


def fraction_of(x) -> Fraction:
    """Coerce int/float/str/Fraction to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)
