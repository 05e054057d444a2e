"""Independent checks of a returned decomposition trace.

Nothing here calls into `sevencubes`: cube sums, the identity balance and the
anchor congruence are recomputed with plain integers, and factor primality is
decided by `sympy.isprime`, which shares no code with `arith.is_prime`.
"""

from __future__ import annotations

from sympy import isprime

IDENTITY_CONSTANT = 1402  # 2 * (4**3 + 5**3 + 8**3)
WINDOW_LO = 1618
WINDOW_HI = 1786


def check_trace(n: int, trace) -> str | None:
    """None when `trace` is a correct decomposition of n, else the reason."""
    cubes = tuple(trace.cubes)
    if len(cubes) != 7 or any(type(c) is not int or c < 0 for c in cubes):
        return f"bases {cubes} are not seven nonnegative ints"
    total = 0
    for c in cubes:
        total += c * c * c
    if total != n:
        return "cube sum differs from n"
    if trace.n != n:
        return f"trace is for {trace.n}"
    n0, e = trace.n0, trace.e
    if type(e) is not int or e < 0 or n0 * 125**e != n or (n0 and n0 % 125 == 0):
        return f"n0={n0}, e={e} do not reduce n by powers of 125"
    if trace.p_value is None:
        if trace.branch == "construction":
            return "construction trace without a modulus"
        return None
    if trace.branch != ("scaled" if e else "construction"):
        return f"branch {trace.branch!r} with e={e}"
    return _check_identity_route(n0, e, trace, cubes)


def _check_identity_route(n0: int, e: int, trace, cubes: tuple[int, ...]) -> str | None:
    p, x0, q = trace.p_value, trace.x0, trace.q
    x1, x2, x3 = trace.x1, trace.x2, trace.x3
    p3 = p**3
    if not WINDOW_LO * p3 < n0 < WINDOW_HI * p3:
        return f"modulus {p} outside its window"
    factors = tuple(trace.p_factors)
    product = 1
    for f in factors:
        if f % 6 != 5 or not isprime(f):
            return f"factor {f} is not a prime == 5 (mod 6)"
        product *= f
    if len(set(factors)) != len(factors) or product != p:
        return f"factors {factors} are not distinct primes with product {p}"
    if x0 <= 0 or x0 % 2:
        return f"anchor {x0} is not positive and even"
    rest = n0 - IDENTITY_CONSTANT * p3
    if (x0**3 - rest) % (6 * p):
        return "anchor is not a cube root of n0 - 1402 p^3 mod 6p"
    if 24 * p * q != rest - x0**3:
        return "24 p q != n0 - x0^3 - 1402 p^3"
    if x2 % 2 or q != x1 * x1 + 2 * x3 * x3 + 5 * (x2 // 2) ** 2:
        return "ternary witness does not represent q"
    scale = 5**e
    bases = (x0, 4 * p + x1, 4 * p - x1, 5 * p + x2, 5 * p - x2, 8 * p + x3, 8 * p - x3)
    if cubes != tuple(scale * b for b in bases):
        return "bases do not match the identity"
    return None
