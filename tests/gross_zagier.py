"""The arithmetic of the Gross-Zagier closed forms, shared by the tests that
check cycle norms and Green's-function sums against them.

For a coprime pair of fundamental discriminants d1, d2 (Gross-Zagier, On
singular moduli, 1985), epsilon is completely multiplicative with
epsilon(p) = (d1/p) for p not dividing d1, else (d2/p); the Hecke
operator T_m adds psi(q) = (d2/q) for q prime to d1, else 0, over q | m.
"""

import math


def kronecker(d: int, p: int) -> int:
    """The Kronecker symbol (d/p) for a discriminant d and a prime p."""
    if p == 2:
        return 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
    r = pow(d % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def gz_epsilon(d1: int, d2: int, n: int) -> int:
    """Gross-Zagier's epsilon(n), completely multiplicative with
    epsilon(p) = (d1/p) for p not dividing d1, else (d2/p)."""
    out, p = 1, 2
    while n > 1:
        while n % p == 0:
            out *= kronecker(d1, p) if d1 % p else kronecker(d2, p)
            n //= p
        p += 1
    return out


def gz_psi(d1: int, d2: int, q: int) -> int:
    """psi(q) = (d2/q), the Kronecker symbol, for q prime to d1, else 0."""
    return gz_epsilon(d2, d2, q) if math.gcd(q, d1) == 1 else 0
