"""Arbitrary-precision numerics: Legendre kernels and exact-integer recognition.

j-values, phi_m products and certified integers are fixed point (Fixed);
lattice sums run on mpmath.  The Legendre function of the second kind at
integer order n has one route, _q_int: in mpf, the upward three-term
recurrence from Q_0(t) = artanh(1/t) with guard bits for its cancellation;
for double-precision arguments, that recurrence near t = 1, the backward
(Miller) recurrence elsewhere below t = 2, and from t = 2 on
Q_n(t) = t^(-(n+1)) F(u) in u = 1/t^2, where F's series has positive
coefficients.  F is evaluated by degree-6 Taylor polynomials on equal
u-cells covering u in [0, 1/4], within 2^-53 of F (_q_cells).
legendre_Q is the one mpf entry for Q_{s-1}(t): the route at integer
s >= 1, mpmath's legenq at any other s, at the context precision.  Its
oracle is legendre_Q_num, direct quadrature of the integral
representation, truncated at 2^-mantissa_bits,

    Q_{s-1}(t) = int_0^oo (t + sqrt(t^2-1) cosh v)^(-s) dv,  t > 1.

Integers are certified by one loop, recognize_with_retries, which sizes
each retry from the bits the failed attempt lacked, by integer_recognize
against the fixed tolerance INTEGER_TOLERANCE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import mpmath as mp

# extra working bits on top of the context's mantissa, absorbs rounding noise
GUARD_BITS = 16
# retries recognize_with_retries makes before giving up
MAX_RETRIES = 4
# integer_recognize's window: at most this distance to the nearest integer,
# scaled by sqrt(|x|) for large x and never above 1/2
INTEGER_TOLERANCE = 1e-9


class PrecisionError(Exception):
    """Raised when a computation cannot be certified after all retries."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class IntegerRecognitionError(PrecisionError):
    """A real value is too far from every integer at the current precision;
    error_bound is its error budget beyond the residual, and short_bits how
    many bits the whole budget lacked (both inf if unbounded)."""

    def __init__(self, message, residual=None, short_bits=math.inf,
                 error_bound=math.inf):
        super().__init__(message, residual=residual)
        self.short_bits = short_bits
        self.error_bound = error_bound


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision.

    mantissa_bits  -- mpmath working mantissa (>= 64)
    """

    mantissa_bits: int = 256

    def __post_init__(self):
        if self.mantissa_bits < 64:
            raise ValueError("mantissa_bits must be >= 64")

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


# Q_n(t) = t^(-(n+1)) F(u), u = 1/t^2, F(u) = sum_j a_j u^j with every a_j > 0.
# t >= 2: the degree of each Taylor cell's polynomial in u
_Q_CELL_DEGREE = 6
# fixed-point bits of the cell coefficients below a_0
_Q_CELL_GUARD = 64
# abscissae u = v < 1 at which F bounds the cells' remainders (Cauchy majorant)
_Q_MAJORANT_AT = (0.375, 0.5, 0.625, 0.75, 0.875, 0.9375)


@lru_cache(maxsize=None)
def _q_cells(n: int) -> tuple[float, tuple[tuple[float, ...], ...]]:
    """(4K, cells): F's degree-6 Taylor polynomials on K equal cells of
    u in [0, 1/4], that is t >= 2, which u = 1/t^2 indexes as
    cells[int(u 4K)]; built once per n.

    Cell i covers |u - c| <= h, c = (2i + 1) h, h = 1/(8K), and holds
    (c, b_6, ..., b_0) with b_k = F^(k)(c)/k!; a last copy of cell K - 1
    serves u = 1/4 exactly, where int(u 4K) = K, and cell 0 every
    t > 2 sqrt(K), however large.  The b_k are positive, as
    F's coefficients are, so F(c + r) >= b_k r^k for 0 < r < 1 - c
    (Cauchy majorant) and the remainder on the cell is

        R <= F(c + r) (h/r)^7 / (1 - h/r).

    K doubles from 1 until R <= 2^-53 (b_0 - b_1 h) in every cell, against
    the least F(v) (h/(v - c))^7 / (1 - h/(v - c)) over v in
    _Q_MAJORANT_AT, where F(v) is the float route below t = 2 with a 1%
    margin.  b_0 - b_1 h <= F on the cell (F is convex), so the relative
    remainder is at most 2^-53.  The last cell is checked first, since its
    bound is the loosest.  The b_k are the Taylor shift (repeated synthetic
    division by u - c) of F's series in fixed point, a_0 ~ 2^72, cut where
    the rest is below 2^-64 a_0 on the cell: from the degree where
    r_j <= 2 on, each term at u <= 1/4 is at most half the one before, and
    the cut changes no coefficient by more than the rest at u = c + h.
    """
    guard = _Q_CELL_GUARD
    num = 2 ** n * math.factorial(n) ** 2
    den = math.factorial(2 * n + 1)
    point = guard + 8 + den.bit_length() - num.bit_length()
    a = [(num << point) // den]
    half = None
    while half is None or a[-1] >> 2 * (len(a) - 1) >= a[0] >> guard + 1:
        j = len(a) - 1
        rn, rd = (n + 1 + 2 * j) * (n + 2 + 2 * j), 2 * (2 * n + 3 + 2 * j) * (j + 1)
        if half is None and rn <= 2 * rd:
            half = j
        a.append(a[-1] * rn // rd)
    log_a = [math.log2(x) - math.log2(a[0]) if x else -math.inf for x in a]
    majorants = [(v, 1.01 * _q_int(n, v ** -0.5) * v ** (-0.5 * (n + 1)))
                 for v in _Q_MAJORANT_AT]

    def cell(i, degree, shift, h):
        odd = 2 * i + 1
        c = odd * h
        top = len(a) - 1
        lu = math.log2(c + h)
        while top > max(degree, half) and log_a[top] + top * lu < -guard - 2:
            top -= 1
        b = a[:top + 1]
        for k in range(degree + 1):
            acc = b[top]
            for j in range(top - 1, k - 1, -1):
                acc = b[j] + (acc * odd >> shift)
                b[j] = acc
        return c, [math.ldexp(x, -point) for x in b[:degree + 1]]

    def fits(c, b, h):
        rest = min(fv * (h / (v - c)) ** (_Q_CELL_DEGREE + 1) / (1.0 - h / (v - c))
                   for v, fv in majorants if v - c > h)
        return rest <= 2.0 ** -53 * (b[0] - b[1] * h)

    count = 1
    while True:
        shift = (8 * count).bit_length() - 1
        h = 1.0 / (8 * count)
        if fits(*cell(count - 1, 1, shift, h), h):
            cells = []
            for i in range(count):
                c, b = cell(i, _Q_CELL_DEGREE, shift, h)
                if not fits(c, b, h):
                    break
                cells.append((c,) + tuple(reversed(b)))
            else:
                cells.append(cells[-1])
                return 4.0 * count, tuple(cells)
        count *= 2


def _q_backward(n: int, t: float, xi: float, q0: float) -> float:
    """Q_n(t), n >= 1, by Miller's backward recurrence, normalised by q0 = Q_0.

    Downward, Q is the dominant solution; starting from (0, 1) at (N + 1, N)
    admixes P at relative weight ~e^(-2 (N + 1 - n) xi) at n, xi = arccosh t,
    so N = n + 20/xi + 2 puts it below e^-40.
    """
    later, q = 0.0, 1.0
    for j in range(n + int(20.0 / xi) + 2, n, -1):
        later, q = q, ((2 * j + 1) * t * q - (j + 1) * later) / j
    qn = q
    for j in range(n, 0, -1):
        later, q = q, ((2 * j + 1) * t * q - (j + 1) * later) / j
    return qn * q0 / q


def _q_int(n: int, t):
    """Legendre Q_n(t) for integer n >= 0, t > 1; type follows t.

    The upward three-term recurrence amplifies the rounding of Q_0 about
    e^((2n+1) xi) times in the recessive Q_n, xi = arccosh t.  So in float,
    t >= 2 takes t^(-(n+1)) F(1/t^2), F from its Taylor cell (_q_cells;
    remainder at most 2^-53 relative); below t = 2, the upward recurrence
    stays where (2n + 1) xi <= 2, near t = 1, and _q_backward runs elsewhere.
    The mpf path keeps the upward recurrence and works with (2n + 1) (mag(t)
    + 1) extra bits, mag(t) >= log2 t, which covers its loss of about
    (2n + 1) xi / ln 2 bits since xi < ln 2t.  That loss exceeds a 272-bit
    mantissa for Q_2 from t ~ 2e16 on.  Only legendre_Q takes the mpf path
    (g_s_truncated and the tests); verify.verify_lower_bound passes a float t.
    """
    if isinstance(t, mp.mpf):
        with mp.extraprec((2 * n + 1) * (mp.mag(t) + 1)):
            return _q_up(n, t, mp.log((t + 1) / (t - 1)) / 2)
    if t >= 2.0:
        k4, cells = _q_cells(n)
        u = 1.0 / (t * t)
        c, b6, b5, b4, b3, b2, b1, b0 = cells[int(u * k4)]
        v = u - c
        p = (((((b6 * v + b5) * v + b4) * v + b3) * v + b2) * v + b1) * v + b0
        return p * t ** -(n + 1)
    q0 = math.log((t + 1) / (t - 1)) / 2
    xi = math.acosh(t)
    if n and (2 * n + 1) * xi > 2.0:
        return _q_backward(n, t, xi, q0)
    return _q_up(n, t, q0)


def _q_up(n: int, t, q0):
    """Q_n(t) by the upward three-term recurrence from q0 = Q_0(t)."""
    if n == 0:
        return q0
    q1 = t * q0 - 1
    for j in range(1, n):
        q0, q1 = q1, ((2 * j + 1) * t * q1 - j * q0) / (j + 1)
    return q1


def legendre_Q(s, t, ctx: PrecisionContext):
    """Q_{s-1}(t) in mpf at the context precision, finite t > 1.

    Integer s >= 1 takes the integer-order route _q_int; any other s goes
    to mpmath's legenq.
    """
    if not 1 < t < math.inf:
        raise ValueError("Q_{s-1} has a logarithmic singularity at t = 1; "
                         "need finite t > 1")
    with ctx.workprec():
        if s >= 1 and float(s).is_integer():
            return _q_int(int(s) - 1, mp.mpf(t))
        return mp.legenq(mp.mpf(s) - 1, 0, mp.mpf(t), type=3).real


def legendre_Q_num(s, t, ctx: PrecisionContext):
    """Q_{s-1}(t) by quadrature of the integral representation, s, t > 1.

    The integrand is truncated at v_max chosen so the analytic tail bound
    falls below 2^-mantissa_bits; the finite piece goes to mp.quad at the
    context precision.  This is the oracle for the integer-order route.
    """
    if not s >= 1:
        raise ValueError("integral representation requires s >= 1")
    if not t > 1:
        raise ValueError("need t > 1")
    with ctx.workprec():
        s = mp.mpf(s)
        t = mp.mpf(t)
        eps = mp.ldexp(1, -ctx.mantissa_bits)
        half_sqrt = mp.sqrt(t * t - 1) / 2
        # tail(v0) = int_{v0}^oo (sqrt(t^2-1) e^v / 2)^(-s) dv
        #          = half_sqrt^(-s) e^(-s v0) / s  <=  eps/2
        v_max = (mp.log(2 / (s * eps)) - s * mp.log(half_sqrt)) / s
        v_max = max(v_max, mp.mpf(1))

        def integrand(v):
            return (t + 2 * half_sqrt * mp.cosh(v)) ** (-s)

        return mp.quad(integrand, [0, v_max])


def mk_constant(k: int):
    """m_k = (max over r in [-1,1] of -P_{k-1}(r))^(-1) for k in {3, 5, 7},
    at mpmath's current precision.

    Closed forms: m_3 = 2, m_5 = 7/3, m_7 = (7 sqrt(15) - 3) / 10.
    """
    if k == 3:
        return mp.mpf(2)
    if k == 5:
        return mp.mpf(7) / 3
    if k == 7:
        return (7 * mp.sqrt(15) - 3) / 10
    raise ValueError(f"m_k is defined for k in (3, 5, 7), got {k}")


# m_k as floats from the same closed forms, for the chain checks; each is
# float(mk_constant(k)) at mpmath's default 53 bits
MK_FLOAT = {3: 2.0, 5: 7.0 / 3.0, 7: (7.0 * math.sqrt(15.0) - 3.0) / 10.0}


class Fixed(NamedTuple):
    """The exact value lies within err 2^-scale of man 2^-scale: integers,
    but err is math.inf when no bound is known."""

    man: int
    err: int
    scale: int


def as_fixed(x, ctx: PrecisionContext, err=0) -> Fixed:
    """x (a number, read as an mpf at the context precision) as a Fixed,
    taken exactly, with err + |x| 2^-mantissa_bits (its rounding) as bound."""
    with ctx.workprec():
        x = mp.mpf(x)
        bound = mp.fadd(err, mp.ldexp(abs(x), -ctx.mantissa_bits), rounding="u")
    finite = mp.isfinite(bound)
    sign, man, exp, _ = x._mpf_
    _, bman, bexp, _ = bound._mpf_ if finite else (0, 0, 0, 0)
    scale = max(0, -exp, -bexp)
    return Fixed((-man if sign else man) << exp + scale,
                 bman << bexp + scale if finite else math.inf, scale)


def integer_recognize(x, ctx: PrecisionContext, err=0) -> int:
    """Round x to the nearest integer n if it is certified, else raise.

    x is a Fixed, or a number taken with its bound err (as_fixed).
    n is accepted only if budget = |x - n| + err < min(INTEGER_TOLERANCE *
    max(1, sqrt|x|), 1/2), in integers of 2^-scale: 2 budget < 2^scale and
    (q budget)^2 < p^2 max(2^(2 scale), |man| 2^scale), p/q the tolerance.
    The 1/2 cap is the certificate: if the exact X is an integer,
    |X - n| < 1/2 forces X = n.  Raises IntegerRecognitionError with the
    residual and the shortfall ceil(log2(budget / window)) otherwise.
    """
    if not isinstance(x, Fixed):
        x = as_fixed(x, ctx, err)
    man, bound, scale = x
    if scale < 0:
        man, bound, scale = man << -scale, bound if bound == math.inf else bound << -scale, 0
    n = (2 * man + (1 << scale)) >> scale + 1
    residual = abs(man - (n << scale))
    budget = residual + bound
    p, q = INTEGER_TOLERANCE.as_integer_ratio()
    if (2 * budget < 1 << scale
            and (q * budget) ** 2 < p * p * max(1 << 2 * scale, abs(man) << scale)):
        return n
    size = max(math.log2(abs(man) or 1) - scale, 0.0)
    window = min(math.log2(INTEGER_TOLERANCE) + size / 2, -1.0)
    off, extra = (float(mp.ldexp(v, -scale)) for v in (residual, bound))
    raise IntegerRecognitionError(
        f"value is {off:.6g} away from the nearest integer "
        f"with error bound {extra:.6g} (allowed {2.0 ** window:.6g} in total)",
        residual=off, error_bound=extra,
        short_bits=(math.ceil(math.log2(budget) - scale - window)
                    if budget != math.inf else math.inf))


def recognize_with_retries(compute, ctx: PrecisionContext) -> list[int]:
    """Certify every value of compute(ctx) as an integer, retrying larger.

    compute receives the (possibly enlarged) context and returns a list of
    Fixed values; each must pass integer_recognize, else the whole
    computation reruns with max(bits, s + 64) more bits, s the first
    failure's shortfall (a plain doubling when s is not finite).  Fails
    after MAX_RETRIES retries with a PrecisionError naming the last
    failure's residual, error bound and shortfall.
    """
    current = ctx
    for _ in range(MAX_RETRIES + 1):
        values = compute(current)
        try:
            return [integer_recognize(v, current) for v in values]
        except IntegerRecognitionError as err:
            last = err
            bits = current.mantissa_bits
            grow = err.short_bits + 64 if math.isfinite(err.short_bits) else 0
            current = current.with_bits(bits + max(bits, grow))
    raise PrecisionError(
        f"integer recognition failed after {MAX_RETRIES} retries "
        f"(last residual {last.residual:.3g}, error bound "
        f"{last.error_bound:.3g}, short by {last.short_bits} bits)",
        residual=last.residual,
    )


def arccosh(t) -> float:
    """Float arccosh clamped against rounding dips just below 1."""
    return math.acosh(max(float(t), 1.0))
