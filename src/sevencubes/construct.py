"""Constructive decomposition of integers into seven nonnegative cubes.

The workhorse is an exact identity: for any integers p, x1, x3, y,

    (4p+x1)^3 + (4p-x1)^3 + (5p+2y)^3 + (5p-2y)^3 + (8p+x3)^3 + (8p-x3)^3
        = 1402*p**3 + 24*p*(x1*x1 + 2*x3*x3 + 5*y*y).

So an even target n == 2 (mod 4) splits into seven nonnegative cubes

    n = x0**3 + 1402*p**3 + 24*p*q,        q = x1**2 + 2*x3**2 + 5*y**2,

once three ingredients line up:

* an auxiliary modulus p: squarefree, every prime factor == 5 (mod 6),
  p == n/2 (mod 4), inside the window 1618*p**3 < n < 1786*p**3;
* the anchor x0: the unique cube root of n - 1402*p**3 modulo 6*p
  (taken in (0, 6p], so x0**3 <= 216*p**3 and the residual q stays in
  0 <= q < 16*p**2, which keeps all six offsets small enough for the
  bases above to be nonnegative);
* a ternary representation of q, which exists whenever q is not of the
  shape 25**k * (25*m + 10) or 25**k * (25*m + 15).

The modulus window forces exact divisibility of n - x0**3 - 1402*p**3 by
24*p: the factor 6*p is the root congruence, and the remaining factor 4
follows from x0 even and p == n/2 (mod 4).

Residues n with small targets, n !== 2 (mod 4), or the handful of true
exceptions are routed to the exhaustive search / stored tables instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from math import gcd, isqrt, prod
from typing import Iterator, NamedTuple

from .arith import (
    _GCD_SIEVE_BOUND,
    _GCD_SIEVE_PRODUCT,
    cube_root_mod_6n,
    is_perfect_square,
    is_prime,
    jacobi,
    primes_upto,
    split_squarefree,
)
from .modulus import (
    COMPOSITE_ROUTE_MIN,
    IDENTITY_CONSTANT,
    AuxModulus,
    iter_moduli_composite,
    iter_moduli_direct,
    modulus_valid,
    steering_residues,
)
from .search import (
    EXCEPTIONS,
    SEARCH_MAX_N,
    SearchLimitError,
    exceptional_cube_tables,
    search_seven,
)

__all__ = [
    "IDENTITY_CONSTANT",
    "ConstructionError",
    "NotRepresentableError",
    "OutOfScopeError",
    "TernaryRep",
    "Trace",
    "anchor_root",
    "assemble_cubes",
    "decompose",
    "dickson_excluded",
    "reduce_125",
    "represent_ternary",
    "residual_quotient",
    "verify",
]

# _sqrt_minus_two looks for a non-residue below this; for a prime modulus
# the least one is far smaller, and the cap ends the search on a composite
_NONRESIDUE_CAP = 1000


class ConstructionError(Exception):
    """An exact algebraic step of the constructive route failed."""


class NotRepresentableError(Exception):
    """The input provably has no representation as seven nonnegative cubes."""


class OutOfScopeError(Exception):
    """No decomposition route applies within the configured budgets."""


def reduce_125(n: int) -> tuple[int, int]:
    """Write n = 125**e * n0 with 125 not dividing n0; return (n0, e).

    Scaling a cube representation of n0 by 5**e recovers one of n, so the
    engine only ever has to handle targets with 5-adic valuation < 3.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    e = 0
    while n % 125 == 0:
        n //= 125
        e += 1
    return n, e


def anchor_root(n: int, modulus: AuxModulus) -> int:
    """The anchor x0 for target n and auxiliary modulus p.

    x0 is the unique cube root of n - 1402*p**3 modulo 6*p, normalised to
    (0, 6p] so that x0**3 never exceeds 216*p**3.  For even n the root is
    automatically even; an odd root means the inputs were invalid.
    """
    p = modulus.value
    x0 = cube_root_mod_6n(n - IDENTITY_CONSTANT * p**3, modulus.primes)
    if x0 == 0:
        x0 = 6 * p
    if x0 % 2:
        raise ConstructionError(f"anchor root {x0} for n={n}, p={p} is odd")
    return x0


def residual_quotient(n: int, p_value: int, x0: int) -> int:
    """q with n == x0**3 + 1402*p**3 + 24*p*q, or ConstructionError.

    Raises if n - x0**3 - 1402*p**3 is negative or not divisible by 24*p;
    both are impossible when p sits in its validity window and in the
    residue class n/2 mod 4.
    """
    numerator = n - x0**3 - IDENTITY_CONSTANT * p_value**3
    q, rem = divmod(numerator, 24 * p_value)
    if rem:
        raise ConstructionError(
            f"n - x0**3 - 1402*p**3 = {numerator} is not divisible by 24*p = {24 * p_value}"
        )
    if q < 0:
        raise ConstructionError(f"negative residual {q}: p={p_value} is above its window")
    return q


def dickson_excluded(q: int) -> bool:
    """True when q = 25**k * m with m == 10 or 15 (mod 25).

    Exactly these nonnegative integers have no representation as
    x**2 + 2*z**2 + 5*y**2; everything else is representable.
    """
    if q <= 0:
        return False
    while q % 25 == 0:
        q //= 25
    return q % 25 in (10, 15)


class TernaryRep(NamedTuple):
    """Witness for q = x1**2 + 2*x3**2 + 5*y**2 (all components >= 0)."""

    x1: int
    x3: int
    y: int

    def q(self) -> int:
        return self.x1 * self.x1 + 2 * self.x3 * self.x3 + 5 * self.y * self.y


def _sqrt_minus_two(p: int) -> int | None:
    """r with r*r == -2 (mod p) for odd p == 1, 3 (mod 8), or None.

    For prime p the root always exists.  p need not be prime: the root is
    checked exactly, so a composite p ends in None or a genuine root, at the
    cost of about one exponentiation.  For p == 3 (mod 8) the root is
    +-(-2)**((p+1)/4), computed as a power of 2.  For p == 1 (mod 8) it is
    c*(1 + c*c) with c = z**((p-1)/8) for the first z from 3 with Jacobi
    symbol -1 (2 is a residue mod p == 1 mod 8), capped: for prime p,
    c**4 == -1, so c is a primitive 8th root of unity and c + c**3 =
    c - c**-1 squares to -2.  No prime is proven.
    """
    if p % 8 == 3:
        r = pow(2, (p + 1) // 4, p)
    else:
        z = next((z for z in range(3, _NONRESIDUE_CAP) if jacobi(z, p) == -1), None)
        if z is None:
            return None
        c = pow(z, (p - 1) // 8, p)
        r = c * (1 + c * c) % p
    return r if (r * r + 2) % p == 0 else None


def _cornacchia_two(p: int) -> tuple[int, int] | None:
    """(x, y) with x*x + 2*y*y == p for odd p == 1 or 3 (mod 8), or None.

    The descent ends on x and accepts it only when (p - x*x)/2 is a perfect
    square, so a returned pair satisfies the identity exactly, whatever p
    is.  That identity is the certificate: p need not be proven prime.  For
    a prime p it always finds the pair (unique up to sign); a composite p
    may give None even when a pair exists.
    """
    root = _sqrt_minus_two(p)
    if root is None:
        return None
    for r in (root, p - root):
        a, b = p, r
        while b * b > p:
            a, b = b, a % b
        y2, rem = divmod(p - b * b, 2)
        if rem == 0:
            y = is_perfect_square(y2)
            if y is not None:
                return b, y
    return None


@cache
def _small_prime_pairs() -> tuple[int, dict[int, tuple[int, int]]]:
    """The product of the primes up to 3000 that are 5, 7 (mod 8), and
    (c, d) with c*c + 2*d*d == p for each p up to 3000 that is 1, 3 (mod 8),
    in increasing p.  Built on _binary_part's first call (210 calls of
    _cornacchia_two, each a prime, so each finds its pair)."""
    primes = primes_upto(_GCD_SIEVE_BOUND)
    inert = prod(p for p in primes if p % 8 in (5, 7))
    return inert, {p: _cornacchia_two(p) for p in primes if p % 8 in (1, 3)}


def _binary_part(m: int) -> tuple[int, int] | None:
    """(a, b) with a*a + 2*b*b == m for cheaply certified shapes, else None.

    Accepts 0, perfect squares, and 4**j times 2, an odd t == 1, 3 (mod 8),
    or twice such a t (the form scales by 4, and 2*(a*a + 2*b*b) ==
    (2b)**2 + 2*a*a), when t = s*P is certified.  s is t's part over the
    primes up to 3000, read off one gcd with their product: each prime
    == 5, 7 (mod 8) must divide t to an even power (else m has no such
    form) and goes into the scale; each prime == 1, 3 (mod 8) brings its
    stored pair, folded in by (a*a + 2*b*b)(c*c + 2*d*d) ==
    (a*c - 2*b*d)**2 + 2*(a*d + b*c)**2.  The cofactor P > 1 needs
    _cornacchia_two's pair.  The exact identities certify the pair; no prime
    is proven.  Below 3000**2 the answer is complete: None means m is not
    a*a + 2*b*b.  Above it, None only says that P's pair was not found.
    """
    if m == 0:
        return (0, 0)
    s = is_perfect_square(m)
    if s is not None:
        return (s, 0)
    t, scale = m, 1
    while t % 4 == 0:
        t //= 4
        scale *= 2
    if t == 2:
        return (0, scale)
    swap = t % 2 == 0
    if swap:
        t //= 2
    if t % 8 not in (1, 3):
        return None
    a, b = 1, 0
    g = gcd(t, _GCD_SIEVE_PRODUCT)
    if g > 1:
        inert, pairs = _small_prime_pairs()
        h = gcd(g, inert)
        g //= h
        # h holds the primes == 5, 7 (mod 8) still dividing t, each to an
        # even power or m has no such form
        while h > 1:
            if t % (h * h):
                return None
            t //= h * h
            scale *= h
            h = gcd(t, h)
        # g holds the primes == 1, 3 (mod 8), each once
        for p in split_squarefree(g, pairs):
            c, d = pairs[p]
            while t % p == 0:
                t //= p
                a, b = a * c - 2 * b * d, a * d + b * c
    if t > 1:
        pair = _cornacchia_two(t)
        if pair is None:
            return None
        c, d = pair
        a, b = a * c - 2 * b * d, a * d + b * c
    a, b = abs(a) * scale, abs(b) * scale
    return (2 * b, a) if swap else (a, b)


# q up to this bound gets a complete scan of every fiber; above it a fiber
# counts only when _binary_part certifies it
COMPLETE_FIBER_LIMIT = 10**8
# fibers represent_ternary tries before it gives up; the most any residual
# needed was 122 for 1290 residuals of 19-61 digit targets and 686 for 90 of
# 250-350 digits (the traced construct and huge benchmark batches, seeds 1-3)
FIBER_BUDGET = 50_000


def _fiber_pair(m: int) -> tuple[int, int] | None:
    """(a, b) with a*a + 2*b*b == m and b smallest, or None: complete scan."""
    b = 0
    while 2 * b * b <= m:
        a = is_perfect_square(m - 2 * b * b)
        if a is not None:
            return a, b
        b += 1
    return None


def represent_ternary(q: int) -> TernaryRep:
    """A witness for q = x1**2 + 2*x3**2 + 5*y**2.

    Raises ConstructionError for the excluded shapes 25**k * (10 or 15 mod 25).
    Otherwise solves a*a + 2*b*b = m = core - 5*y*y on the fibers y, where
    core is q with its 5-adic part peeled:

    * q <= COMPLETE_FIBER_LIMIT: y = 0, 1, 2, ... upward, each fiber solved
      completely, so the witness is the one with the smallest (y, x3);
    * above it: y = isqrt(core // 5) downward, a fiber counting only when
      _binary_part finds its pair (squares, and t == 1, 3 mod 8, twice or
      4**j times such a t, composed from stored pairs of its prime factors
      up to 3000 and Cornacchia's pair of the cofactor).  The exact
      identity certifies the witness; no primality test runs and no prime
      is proven.  The j-th fiber from the top has m about
      2*j*sqrt(5*core), half the bits of q, so each modular exponentiation
      is several times cheaper and a pair twice as likely as near y = 0.

    Raises OutOfScopeError when FIBER_BUDGET fibers, or all of them, yield no
    witness; decompose then tries its next modulus.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    if dickson_excluded(q):
        raise ConstructionError(f"{q} = 25**k * (25*m + 10 or 15) has no ternary witness")
    if q == 0:
        return TernaryRep(0, 0, 0)

    # peel the 5-adic part: the whole form scales by 25, and when exactly one
    # factor 5 remains, x1 and x3 are forced to multiples of 5 (2 is not a
    # square mod 5), leaving a*a + 2*b*b = (core - 5*y*y)/25 on the fibers
    # with y*y == core/5 (mod 5)
    scale5, core = 1, q
    while core % 25 == 0:
        core //= 25
        scale5 *= 5
    unit = 5 if core % 5 == 0 else 1
    top = isqrt(core // 5)
    if q <= COMPLETE_FIBER_LIMIT:
        solve, fibers = _fiber_pair, range(top + 1)
    else:
        solve, fibers = _binary_part, range(top, -1, -1)
    tried = 0
    for y in fibers:
        m, rem = divmod(core - 5 * y * y, unit * unit)
        if rem:
            continue
        if tried == FIBER_BUDGET:
            break
        tried += 1
        pair = solve(m)
        if pair is not None:
            a, b = pair
            rep = TernaryRep(scale5 * unit * a, scale5 * unit * b, scale5 * y)
            assert rep.q() == q
            return rep
    raise OutOfScopeError(f"no ternary witness for {q} in {tried} fibers")


def _identity_bases(p: int, x0: int, x1: int, x2: int, x3: int) -> tuple[int, ...]:
    """The seven bases (x0, 4p +- x1, 5p +- x2, 8p +- x3) of the identity route."""
    return (x0, 4 * p + x1, 4 * p - x1, 5 * p + x2, 5 * p - x2, 8 * p + x3, 8 * p - x3)


def assemble_cubes(
    n: int, p_value: int, x0: int, rep: TernaryRep
) -> tuple[int, int, int, int, int, int, int]:
    """The seven cube bases for n from modulus p, anchor x0 and witness rep.

    Every step is checked exactly; ConstructionError means the ingredients
    do not actually satisfy the identity or produce a negative base.
    """
    p = p_value
    if x0 <= 0 or x0 % 2:
        raise ConstructionError(f"anchor {x0} must be positive and even")
    q = rep.q()
    if n != x0**3 + IDENTITY_CONSTANT * p**3 + 24 * p * q:
        raise ConstructionError(
            f"identity does not balance: n={n}, p={p}, x0={x0}, q={q}"
        )
    cubes = _identity_bases(p, x0, rep.x1, 2 * rep.y, rep.x3)
    if min(cubes) < 0:
        raise ConstructionError(f"negative cube base in {cubes}")
    if sum(c**3 for c in cubes) != n:
        raise ConstructionError("cube sum does not reproduce n")
    return cubes


def verify(cubes, n: int) -> bool:
    """True when `cubes` is a sequence of 7 nonnegative ints summing (cubed) to
    n, an int; bools and floats count as neither."""
    cubes = tuple(cubes)
    if type(n) is not int or len(cubes) != 7 or not all(
        type(c) is int and c >= 0 for c in cubes
    ):
        return False
    a, b, c, d, e, f, g = cubes  # unrolled: cheaper than a generator
    return a**3 + b**3 + c**3 + d**3 + e**3 + f**3 + g**3 == n


@dataclass
class Trace:
    """Full audit record of one decomposition.

    `branch` is "construction" (identity route on n itself), "fallback"
    (exhaustive search on n itself, or the stored table of 125 * n0 for an
    exception n0 at e == 1), or "scaled" (any route applied to a smaller
    target and scaled by a power of 5).  Construction-specific
    fields are None on the other branches.  Every factor in `p_factors` lies
    below psi_5, where is_prime is a proof, and recheck() proves each again.
    """

    n: int
    n0: int
    e: int
    branch: str
    cubes: tuple[int, ...]
    p_value: int | None = None
    p_factors: tuple[int, ...] | None = None
    b: int | None = None
    x0: int | None = None
    q: int | None = None
    x1: int | None = None
    x2: int | None = None
    x3: int | None = None
    verified: bool = False

    def recheck(self) -> bool:
        """Re-derive `verified` from the recorded fields alone.

        Always: the seven cubes sum to n, n0 is an int, e a nonnegative int
        and n == n0 * 125**e.  On traces with a modulus, also b == p mod 25,
        the branch "construction" (e == 0) or "scaled", and every step of the
        identity route (_route_holds).  On the others, b is None and the
        branch is "fallback" when e == 0 or n0 is an exception at e == 1 (the
        stored table of 125 * n0), else "scaled".
        """
        e = self.e
        self.verified = (
            verify(self.cubes, self.n)
            and type(self.n0) is int
            and type(e) is int
            and e >= 0
            and self.n0 * 125**e == self.n
            and (
                self.b is None
                and self.branch
                == ("fallback" if e == 0 or (e == 1 and self.n0 in EXCEPTIONS) else "scaled")
                if self.p_value is None
                else self.b == self.p_value % 25
                and self.branch == ("scaled" if e else "construction")
                and self._route_holds()
            )
        )
        return self.verified

    def _route_holds(self) -> bool:
        """The identity route, checked exactly: p in its window for n0; its
        factors an AuxModulus certificate (strictly increasing, each
        == 5 (mod 6), product p), each proven prime by is_prime (a factor
        at or above psi_5 fails); the anchor x0 positive and even; the
        residual 24*p*q == n0 - x0**3 - 1402*p**3, which also gives the
        anchor congruence x0**3 == n0 - 1402*p**3 (mod 6p); the witness
        q == x1**2 + 2*x3**2 + 5*(x2/2)**2; and the cubes equal to
        5**e * (x0, 4p +- x1, 5p +- x2, 8p +- x3).  p, its factors, x0, q,
        x1, x2 and x3 must be ints (None, bools and floats fail); lists count
        as tuples, so a trace rebuilt from its JSON record rechecks."""
        p, n0, x0, q = self.p_value, self.n0, self.x0, self.q
        x1, x2, x3, factors = self.x1, self.x2, self.x3, self.p_factors
        if not isinstance(factors, (tuple, list)) or not all(
            type(v) is int for v in (p, x0, q, x1, x2, x3, *factors)
        ):
            return False
        try:
            AuxModulus(p, tuple(factors))
            if not all(map(is_prime, factors)):
                return False
        except ValueError:  # an invalid certificate, or a factor past psi_5
            return False
        return (
            modulus_valid(n0, p)
            and x0 > 0
            and x0 % 2 == 0
            and n0 - x0**3 - IDENTITY_CONSTANT * p**3 == 24 * p * q
            and x2 % 2 == 0
            and q == x1 * x1 + 2 * x3 * x3 + 5 * (x2 // 2) ** 2
            and tuple(self.cubes)
            == tuple(5**self.e * c for c in _identity_bases(p, x0, x1, x2, x3))
        )

    def to_record(self) -> dict:
        """Serialisable record with a fixed 14-key layout."""
        return {
            "n": self.n,
            "n0": self.n0,
            "e": self.e,
            "branch": self.branch,
            "p_value": self.p_value,
            "p_factors": list(self.p_factors) if self.p_factors is not None else None,
            "b": self.b,
            "x0": self.x0,
            "q": self.q,
            "x1": self.x1,
            "x2": self.x2,
            "x3": self.x3,
            "cubes": list(self.cubes),
            "verified": self.verified,
        }


def _candidate_moduli(n: int) -> Iterator[AuxModulus]:
    """Moduli to try for n == 2 (mod 4), from one scan chosen by size: up to
    COMPOSITE_ROUTE_MIN the direct window scan (the smallest candidate whose
    factorization it certifies wins), above it the steered smooth composites
    S * l, one scan per steering residue.  Neither scan falls back on the
    other."""
    if n <= COMPOSITE_ROUTE_MIN:
        yield from iter_moduli_direct(n)
    else:
        for b in steering_residues(n):
            yield from iter_moduli_composite(n, b)


def _construct(n: int) -> Trace | None:
    """Identity route for n == 2 (mod 4), 125 not dividing n; None if no
    admissible modulus in the window yields an admissible residual."""
    for modulus in _candidate_moduli(n):
        x0 = anchor_root(n, modulus)
        q = residual_quotient(n, modulus.value, x0)
        if dickson_excluded(q):
            continue
        try:
            rep = represent_ternary(q)
        except OutOfScopeError:
            continue
        cubes = assemble_cubes(n, modulus.value, x0, rep)
        return Trace(
            n=n,
            n0=n,
            e=0,
            branch="construction",
            cubes=cubes,
            p_value=modulus.value,
            p_factors=modulus.primes,
            b=modulus.value % 25,
            x0=x0,
            q=q,
            x1=rep.x1,
            x2=2 * rep.y,
            x3=rep.x3,
        )
    return None


def decompose(n: int, *, search_max_n: int = SEARCH_MAX_N) -> Trace:
    """Decompose n into seven nonnegative cubes with a full audit trace.

    One pipeline: write n = 125**e * n0, answer n0 by one route, then scale
    the cubes by a power of 5 and recheck the trace once (ConstructionError
    if the recheck fails).  The route for n0:

    * one of the 17 true exceptions at e >= 1: the stored seven-cube table
      of 125 * n0, scaled by 5**(e-1);
    * n0 == 2 (mod 4): the identity route, when one of its moduli works;
    * otherwise the exhaustive search, up to n0 <= `search_max_n`
      (OutOfScopeError above it; NotRepresentableError if it proves there
      is no representation).  n == 0 takes this route too, and so does an
      exception at e == 0: NotRepresentableError comes only from a finished
      descent, so with `search_max_n` below such an n0 (all are <= 454) the
      answer is OutOfScopeError.

    The identity route runs one modulus scan, chosen by size, and has fixed
    budgets, which live in the module of the step they bound.  For n0 up to
    COMPOSITE_ROUTE_MIN (about 1.1e28) the direct scan examines at most
    modulus.DIRECT_SCAN_LIMIT candidates, all below 1.91e8 (far under
    psi_5, so every factor is proven).  Each cofactor is split by trial
    division up to arith.FACTOR_BOUND, and since 1.91e8 < 10007 *
    FACTOR_BOUND at most one prime is left above the bound: the scan takes
    the smallest admissible candidate.  Above the gate the composite route
    examines at most modulus.PRIME_SCAN_LIMIT values of the large prime l
    per steering residue, and the direct scan does not run.  The ternary
    step tries FIBER_BUDGET fibers per modulus; a modulus whose residual
    exhausts them is skipped like one whose residual is excluded.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("n must be an int")
    if n < 0:
        raise ValueError("n must be nonnegative")
    n0, e = reduce_125(n) if n else (0, 0)

    if e and n0 in EXCEPTIONS:
        # 125 * n0 always has a seven-positive-cube table entry
        cubes = exceptional_cube_tables()[n0][1]
        trace = Trace(n=125 * n0, n0=n0, e=1, branch="fallback", cubes=cubes)
    else:
        trace = _construct(n0) if n0 % 4 == 2 else None
    if trace is None:
        try:
            found = search_seven(n0, max_n=search_max_n)
        except SearchLimitError:
            raise OutOfScopeError(
                # n itself is left out: past 4300 digits it may not convert to str
                f"no constructive route, and n0 = n / 125**{e} exceeds the search"
                f" budget {search_max_n}"
            ) from None
        if found is None:  # complete search: a genuine non-representable value
            raise NotRepresentableError(f"{n} is not a sum of seven nonnegative cubes")
        trace = Trace(n=n0, n0=n0, e=0, branch="fallback", cubes=found)

    if trace.e < e:
        scale = 5 ** (e - trace.e)
        trace = replace(
            trace, n=n, e=e, branch="scaled", cubes=tuple(c * scale for c in trace.cubes)
        )
    if not trace.recheck():
        raise ConstructionError(f"the {trace.branch} trace of n0 = n / 125**{e} fails recheck")
    return trace
