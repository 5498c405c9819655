"""Exact arbitrary-precision arithmetic: primes, factorization, p-adic
valuations, radicals, and primorials.

Everything here is pure and deterministic.  Values are Python ints, so
nothing overflows; factorizations are canonical tuples of (prime, exponent)
pairs sorted by prime.  Factorization takes one gcd of n with the product of
the trial primes (those up to TRIAL_LIMIT, or up to about sqrt(n) for a
smaller n) and divides out only the primes of that gcd; a larger cofactor
goes to Miller-Rabin, perfect-power roots, and Brent's variant of Pollard
rho, which raises ValueError for a cofactor it cannot split within a
budget of about 2**20 steps.  Miller-Rabin uses the published witness set
proven for n's size, so is_prime is exact below psi_13 =
3317044064679887385961981 and raises ValueError above it for a number that
no witness shows composite.  The prime sieve up to TRIAL_LIMIT is built
once at import; primes_up_to sieves afresh past it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from typing import NamedTuple

__all__ = [
    "FactoredNat",
    "divisors",
    "factorize",
    "is_prime",
    "is_squarefree",
    "primes_up_to",
    "primorial",
    "radical",
    "rational_valuations",
]

# Trial-division bound: a cofactor free of trial primes is prime if <= TRIAL_LIMIT**2.
TRIAL_LIMIT = 1 << 11
_TRIAL_SQUARE = TRIAL_LIMIT * TRIAL_LIMIT
_END = (math.inf, 0)  # rational_valuations' sentinel past the last prime of N
# Brent's rounds r = 1, 2, ..., 2**18 sum to this: about 2**20 polynomial steps
_RHO_BUDGET = (1 << 19) - 1

# Deterministic Miller-Rabin: the first k prime bases prove every n below
# psi_k, the least strong pseudoprime to all of them (Jaeschke, Math. Comp.
# 1993; psi_12 and psi_13 from Sorenson-Webster, Math. Comp. 2017).  Each
# entry is (psi_k, bases); the last bound is psi_13.
_MR_TIERS = (
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)


def _sieve_to(limit: int) -> bytearray:
    """sieve[n] == 1 iff n is prime, for 0 <= n <= limit (limit >= 1)."""
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return sieve


_sieve = _sieve_to(TRIAL_LIMIT)
_TRIAL_PRIMES = tuple(n for n, flag in enumerate(_sieve) if flag)


def primes_up_to(limit: int) -> list[int]:
    """Sorted list of all primes <= limit (a fresh sieve past TRIAL_LIMIT)."""
    if limit <= TRIAL_LIMIT:
        return list(_TRIAL_PRIMES[: bisect_right(_TRIAL_PRIMES, limit)])
    return [n for n, flag in enumerate(_sieve_to(limit)) if flag]


_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)
# For a bit length b < 21, _TRIAL_PRODUCTS[b] is the product of the trial
# primes up to 2**ceil(b/2), which is >= sqrt(n) for every n of b bits.  From
# b = 21 on that bound reaches TRIAL_LIMIT and _TRIAL_PRODUCT takes its
# place.  A small n so skips most of the 2,865-bit division of the full gcd.
_TRIAL_PRODUCTS = tuple(
    math.prod(_TRIAL_PRIMES[: bisect_right(_TRIAL_PRIMES, 1 << (b + 1) // 2)]) for b in range(21)
)


def _miller_rabin(n: int) -> bool:
    """Proven primality of an odd n > 41, by the witness set of n's tier.
    At or above psi_13 a composite verdict is still proven, but passing
    every base is not a proof: ValueError."""
    for bound, bases in _MR_TIERS:
        if n < bound:
            break
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= bound:
        raise ValueError(f"cannot prove {n} prime: it is a strong probable prime "
                         f"to the bases up to 41, which decide only n < {bound}")
    return True


def is_prime(n: int) -> bool:
    """Deterministic primality test: sieve lookup, then Miller-Rabin with
    the witness set proven for n's size.  Raises ValueError for an n >=
    psi_13 = 3317044064679887385961981 that no witness shows composite."""
    if n < 2:
        return False
    if n <= TRIAL_LIMIT:
        return bool(_sieve[n])
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return False
    return _miller_rabin(n)


def _brent(n: int) -> int:
    """One nontrivial factor of an odd composite n (deterministic schedule).
    The round lengths r, summed over every polynomial tried, may not pass
    _RHO_BUDGET (about 2**20 polynomial steps): past it, ValueError."""
    c, spent = 1, 0
    while True:
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            spent += r
            if spent > _RHO_BUDGET:
                raise ValueError(f"cannot split {n} within the rho step budget")
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


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1 and k >= 2, exactly."""
    if k == 2:
        return math.isqrt(n)
    # a float seed, rounded up; by AM-GM one Newton step from any positive
    # start lands at or above the floor of the root
    log2_root = math.log2(n) / k
    shift = max(int(log2_root) - 60, 0)
    x = (int(2.0 ** (log2_root - shift)) + 1) << shift
    x = ((k - 1) * x + n // x ** (k - 1)) // k
    while True:
        # Newton's step decreases strictly from above the root down to its floor
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _split(n: int, acc: dict[int, int], mult: int = 1) -> None:
    """Add the prime factors of n > 1 to acc, each exponent times mult.
    Every prime factor of n exceeds TRIAL_LIMIT, so n <= TRIAL_LIMIT**2 is
    prime, and n = r**k needs k <= n.bit_length() // 11.  A perfect power is
    split by its root: rho needs about sqrt(p) steps to split p**k."""
    if n <= _TRIAL_SQUARE or _miller_rabin(n):
        acc[n] = acc.get(n, 0) + mult
        return
    # a k-th power is a q-th power for each prime q dividing k
    for k in _TRIAL_PRIMES[: bisect_right(_TRIAL_PRIMES, n.bit_length() // 11)]:
        r = _iroot(n, k)
        if r**k == n:
            _split(r, acc, mult * k)
            return
    d = _brent(n)
    _split(d, acc, mult)
    _split(n // d, acc, mult)


def _factor_int(n: int) -> tuple[tuple[int, int], ...]:
    if n < 1:
        raise ValueError(f"cannot factorize {n}: need n >= 1")
    out = []
    # g: the product of the distinct primes of n among the trial primes up to
    # 2**ceil(b/2) (all trial primes from b = 21 on)
    b = n.bit_length()
    g = math.gcd(n, _TRIAL_PRODUCTS[b] if b < 21 else _TRIAL_PRODUCT)
    if g > 1:
        n //= g  # one copy of each prime of g
        # take g's primes in increasing order until the rest of g is one prime
        if g > TRIAL_LIMIT or not _sieve[g]:
            for p in _TRIAL_PRIMES:
                if g % p == 0:
                    g //= p
                    e = 1
                    while n % p == 0:
                        n //= p
                        e += 1
                    out.append((p, e))
                    if g <= TRIAL_LIMIT and _sieve[g]:
                        break
        e = 1
        while n % g == 0:
            n //= g
            e += 1
        out.append((g, e))
    if n > 1:
        if n <= _TRIAL_SQUARE:
            # n has no prime up to the gcd's bound, which is >= sqrt(n) or is
            # TRIAL_LIMIT, so n is prime
            out.append((n, 1))
        else:
            # every prime factor of n exceeds TRIAL_LIMIT, so out stays sorted
            extra: dict[int, int] = {}
            _split(n, extra)
            out.extend(sorted(extra.items()))
    return tuple(out)


class FactoredNat(NamedTuple):
    """A natural number >= 1 carrying its canonical prime factorization.

    Ordering and equality follow the integer value; the factor tuple is
    sorted by prime with all exponents >= 1.  The constructor trusts its
    arguments; the package builds one only from factors it computed.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

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


@lru_cache(maxsize=1 << 10)
def _factored(n: int) -> FactoredNat:
    # the one factorization cache: a hit returns the same object, not a copy.
    # The hits that pay recur within a few hundred values (the hunt's draws
    # over [4, 80], the delta = 1 windows, the defect census's generator);
    # a value read from an instance file or drawn at random is factorized
    # once, and the object that owns it keeps it alive, so a larger bound
    # would only hold the history of a run.
    return FactoredNat(n, _factor_int(n))


def factorize(n: int | FactoredNat) -> FactoredNat:
    """Canonical factorization of n >= 1 (FactoredNat inputs pass through)."""
    if isinstance(n, FactoredNat):
        return n
    return _factored(n)


def rational_valuations(a: int | FactoredNat, N: int | FactoredNat) -> dict[int, int]:
    """{p: v_p(a/N)} for every prime where v_p(a) - v_p(N) is nonzero, in
    increasing order of p: one merge of the two sorted factor tuples."""
    vals: dict[int, int] = {}
    rest = iter(factorize(N).factors)
    q, f = next(rest, _END)
    for p, e in factorize(a).factors:
        while q < p:
            vals[q] = -f
            q, f = next(rest, _END)
        if q == p:
            if e != f:
                vals[p] = e - f
            q, f = next(rest, _END)
        else:
            vals[p] = e
    if f:  # exponents are >= 1, so f = 0 only at the end
        vals[q] = -f
        vals.update((q, -f) for q, f in rest)
    return vals


def primorial(X: int) -> FactoredNat:
    """Product of all primes <= X (empty product 1 for X < 2)."""
    if X < 1:
        raise ValueError(f"primorial needs X >= 1, got {X}")
    ps = primes_up_to(X)
    prod = 1
    for p in ps:
        prod *= p
    return FactoredNat(prod, tuple((p, 1) for p in ps))


def is_squarefree(n: int | FactoredNat) -> bool:
    """True iff no prime square divides n."""
    return all(e == 1 for _, e in factorize(n).factors)


def radical(n: int | FactoredNat) -> FactoredNat:
    """rad(n): the product of the distinct primes dividing n."""
    ps = factorize(n).primes()
    prod = 1
    for p in ps:
        prod *= p
    return FactoredNat(prod, tuple((p, 1) for p in ps))


def divisors(n: int | FactoredNat) -> tuple[int, ...]:
    """All positive divisors of n, sorted ascending."""
    divs = [1]
    for p, e in factorize(n).factors:
        block = list(divs)
        pk = 1
        for _ in range(e):
            pk *= p
            divs.extend(d * pk for d in block)
    divs.sort()
    return tuple(divs)
