"""Arbitrary-precision numerics: Legendre kernels and exact-integer recognition.

Everything downstream (j-values, lattice sums, norm products) runs on mpmath
at a precision carried by a PrecisionContext.  The Legendre function of the
second kind appears in two independent routes:

  * legendre_Q_closed -- the polynomial-log closed form available at odd
    integer order k in {1, 3, 5, 7},
  * legendre_Q_num    -- direct quadrature of the integral representation
        Q_{s-1}(t) = int_0^oo (t + sqrt(t^2-1) cosh v)^(-s) dv,  t > 1,

and the quadrature route serves as the oracle for the closed forms.  The
published table of the R polynomials contains two typos (the R_0 row is
labelled R_2, and the last monomial of R_6 is printed without its power of
t); the table frozen here was cross-checked against the quadrature route,
which pins R_6(t) = (231/16)t^5 - (119/8)t^3 + (231/80)t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath as mp

# extra working bits on top of the context's mantissa, absorbs rounding noise
GUARD_BITS = 16


class PrecisionError(Exception):
    """Raised when a computation cannot be certified after all retries."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class IntegerRecognitionError(PrecisionError):
    """A real value is too far from every integer at the current precision."""


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision plus the policy for recognizing exact integers.

    mantissa_bits      -- mpmath working mantissa (>= 64)
    integer_tolerance  -- max distance to the nearest integer, scaled by
                          sqrt(|x|) for large x and never above 1/2
    max_retries        -- how many precision doublings before giving up
    series_tail_bound  -- absolute truncation budget per series/integral
    """

    mantissa_bits: int = 256
    integer_tolerance: float = 1e-9
    max_retries: int = 4
    series_tail_bound: float = 1e-30

    def __post_init__(self):
        if self.mantissa_bits < 64:
            raise ValueError("mantissa_bits must be >= 64")
        if not (0.0 < self.integer_tolerance < 0.5):
            raise ValueError("integer_tolerance must lie in (0, 0.5)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.series_tail_bound <= 0.0:
            raise ValueError("series_tail_bound must be positive")

    def doubled(self) -> "PrecisionContext":
        return replace(self, mantissa_bits=2 * self.mantissa_bits)

    def with_bits(self, bits: int) -> "PrecisionContext":
        return replace(self, mantissa_bits=max(int(bits), 64))

    def workprec(self):
        return mp.workprec(self.mantissa_bits + GUARD_BITS)


def legendre_P(n: int, t):
    """Legendre polynomial P_n(t) by the three-term recurrence."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    p_prev, p = 1, t
    if n == 0:
        return p_prev * (t * 0 + 1) if hasattr(t, "__mul__") else 1
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * t * p - (j - 1) * p_prev) / j
    return p


# R_{k-1} for k in {1,3,5,7}, as (coefficient, power) monomial lists.
# The k = 7 constant-row typo is resolved as (231/80)*t (quadrature-checked).
_R_TABLE = {
    0: (),
    2: ((Fraction(3, 2), 1),),
    4: ((Fraction(35, 8), 3), (Fraction(-55, 24), 1)),
    6: ((Fraction(231, 16), 5), (Fraction(-119, 8), 3), (Fraction(231, 80), 1)),
}

_CLOSED_FORM_KS = (1, 3, 5, 7)


def legendre_R(n: int, t):
    """The logarithm-free part R_n of Q_n = (P_n/2) log((t+1)/(t-1)) - R_n."""
    if n not in _R_TABLE:
        raise ValueError(f"R_n is tabulated only for n in {sorted(_R_TABLE)}, got {n}")
    acc = 0
    for coef, power in _R_TABLE[n]:
        acc += coef * t ** power
    return acc


def legendre_Q_closed(k: int, t, ctx: PrecisionContext):
    """Q_{k-1}(t) for odd k in {1,3,5,7} via the polynomial-log closed form."""
    if k not in _CLOSED_FORM_KS:
        raise ValueError(f"closed form requires k in {_CLOSED_FORM_KS}, got {k}")
    if not t > 1:
        raise ValueError("Q_{k-1} has a logarithmic singularity at t = 1; need t > 1")
    with ctx.workprec():
        t = mp.mpf(t)
        p = legendre_P(k - 1, t)
        r = legendre_R(k - 1, t)
        return p / 2 * mp.log((t + 1) / (t - 1)) - r


def legendre_Q_num(s, t, ctx: PrecisionContext):
    """Q_{s-1}(t) by quadrature of the integral representation, s, t > 1.

    The integrand is truncated at v_max chosen so the analytic tail bound
    falls below ctx.series_tail_bound; the finite piece goes to mp.quad at
    the context precision.  This is the oracle route for the closed forms.
    """
    if not s >= 1:
        raise ValueError("integral representation requires s >= 1")
    if not t > 1:
        raise ValueError("need t > 1")
    with ctx.workprec():
        s = mp.mpf(s)
        t = mp.mpf(t)
        eps = mp.mpf(ctx.series_tail_bound)
        half_sqrt = mp.sqrt(t * t - 1) / 2
        # tail(v0) = int_{v0}^oo (sqrt(t^2-1) e^v / 2)^(-s) dv
        #          = half_sqrt^(-s) e^(-s v0) / s  <=  eps/2
        v_max = (mp.log(2 / (s * eps)) - s * mp.log(half_sqrt)) / s
        v_max = max(v_max, mp.mpf(1))

        def integrand(v):
            return (t + 2 * half_sqrt * mp.cosh(v)) ** (-s)

        return mp.quad(integrand, [0, v_max])


def mk_constant(k: int, ctx: PrecisionContext | None = None):
    """m_k = (max over r in [-1,1] of -P_{k-1}(r))^(-1) for k in {3, 5, 7}.

    Closed forms: m_3 = 2, m_5 = 7/3, m_7 = (7 sqrt(15) - 3) / 10.
    """
    prec = (ctx.mantissa_bits + GUARD_BITS) if ctx else mp.mp.prec
    with mp.workprec(prec):
        if k == 3:
            return mp.mpf(2)
        if k == 5:
            return mp.mpf(7) / 3
        if k == 7:
            return (7 * mp.sqrt(15) - 3) / 10
    raise ValueError(f"m_k is defined for k in (3, 5, 7), got {k}")


def integer_recognize(x, ctx: PrecisionContext, err=0) -> int:
    """Round x to the nearest integer n if it is certified, else raise.

    err is the caller's absolute bound on |x - X| for the exact value X.
    n is accepted only if

        |x - n| + err + |x| 2^-mantissa_bits
            < min(integer_tolerance * max(1, sqrt|x|), 1/2),

    where the middle term covers the rounding of x itself.  The 1/2 cap is
    the certificate: if X is an integer, |X - n| < 1/2 forces X = n.  The
    sqrt-scaled tolerance only tightens the window for small values.
    Raises IntegerRecognitionError (a PrecisionError) with the residual
    distance otherwise, so callers can retry at doubled mantissa.
    """
    with ctx.workprec():
        x = mp.mpf(x)
        n = int(mp.nint(x))
        residual = abs(x - n)
        budget = residual + mp.mpf(err) + abs(x) * mp.mpf(2) ** (-ctx.mantissa_bits)
        threshold = min(
            mp.mpf(ctx.integer_tolerance) * max(mp.mpf(1), mp.sqrt(abs(x))),
            mp.mpf(0.5))
        if budget < threshold:
            return n
        raise IntegerRecognitionError(
            f"value is {mp.nstr(residual, 6)} away from the nearest integer "
            f"with error bound {mp.nstr(budget - residual, 6)} "
            f"(allowed {mp.nstr(threshold, 6)} in total)",
            residual=float(residual),
        )


def recognize_with_retries(compute, ctx: PrecisionContext) -> int:
    """Run compute(ctx) and integer-recognize, doubling precision on failure.

    compute receives the (possibly escalated) context and must return a real.
    Fails explicitly after ctx.max_retries doublings.
    """
    current = ctx
    last = None
    for _ in range(ctx.max_retries + 1):
        value = compute(current)
        try:
            return integer_recognize(value, current)
        except IntegerRecognitionError as err:
            last = err
            current = current.doubled()
    raise PrecisionError(
        f"integer recognition failed after {ctx.max_retries} retries "
        f"(last residual {last.residual if last else 'n/a'})",
        residual=last.residual if last else None,
    )


def arccosh(t) -> float:
    """Float arccosh clamped against rounding dips just below 1."""
    return math.acosh(max(float(t), 1.0))
