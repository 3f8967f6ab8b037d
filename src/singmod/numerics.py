"""Arbitrary-precision numerics: Legendre kernels and exact-integer recognition.

Everything downstream (j-values, lattice sums, norm products) runs on mpmath
at a precision carried by a PrecisionContext.  The Legendre function of the
second kind at integer order n has one route, _q_int: in mpf, the upward
three-term recurrence from Q_0(t) = artanh(1/t) with guard bits for its
cancellation; for double-precision arguments, that recurrence near t = 1,
the backward (Miller) recurrence elsewhere below t = 2, and at t >= 2 the
descending series t^(-(n+1)) sum_j a_j u^j in u = 1/t^2, cut at a fixed
degree J per t-band (t >= 64, 16, 4, 2) and evaluated by Horner.  All terms
are positive, so the remainder is at most a_(J+1) u^(J+1) / (1 - rho u)
with rho the largest later term ratio (above 1 for small j once n >= 3);
each band's J is the least one putting this below 2^-53 times the sum at
the band's lower edge, except the top band, whose degree is fixed at 4 and
whose edge moves up from 64 until that degree suffices.  _q_sum adds Q_n
over many arguments, the top band unrolled.  legendre_Q is the one mpf
entry for Q_{s-1}(t): the route at integer s >= 1, mpmath's legenq at any
other s, at the context precision.  Its oracle is legendre_Q_num, direct
quadrature of the integral representation, truncated at 2^-mantissa_bits,

    Q_{s-1}(t) = int_0^oo (t + sqrt(t^2-1) cosh v)^(-s) dv,  t > 1.

Integers are certified by one loop, recognize_with_retries, which sizes
each retry from the bits the failed attempt lacked, against the fixed
tolerance INTEGER_TOLERANCE.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace

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


# the top t-band has this fixed degree; its lower edge starts here and
# doubles until the degree suffices (64 for every n <= 20)
_Q_TOP_DEGREE = 4
_Q_TOP_EDGE = 64.0
# lower edges of the other t-bands; each band has its own degree
_Q_BANDS = (16.0, 4.0, 2.0)
_Q_HORNER: dict[int, tuple[tuple[float, tuple[float, ...]], ...]] = {}


def _q_horner_bands(n: int) -> tuple[tuple[float, tuple[float, ...]], ...]:
    """(lower edge t0, coefficients a_J..a_0) per t-band, for Q_n with t >= 2.

    Q_n(t) = t^(-(n+1)) sum_j a_j u^j with u = 1/t^2, a_0 = 2^n n!^2/(2n+1)!
    and the term ratio r_j = a_(j+1)/a_j
    = ((n+1)/2 + j)((n+2)/2 + j) / ((n + 3/2 + j)(1 + j)).  Every term is
    positive, so truncating after degree J leaves the remainder

        R_J <= a_(J+1) u^(J+1) / (1 - rho u),   rho = sup_(j > J) r_j,

    and the partial sum is at least a_0.  r_j > 1 exactly when
    j < (n^2 - n - 4)/4 (for n >= 3 the first ratios exceed 1), so rho is the
    largest of 1 and the r_j with J < j below that crossing.  A degree J
    fits a band when rho u < 1 and R_J <= 2^-53 a_0 at the band's lower edge
    t0; since R_J falls with u, the bound then holds on the whole band.  The
    top band has degree _Q_TOP_DEGREE and the least edge _Q_TOP_EDGE 2^i
    that it fits; every other band takes the least J that fits.
    """
    bands = _Q_HORNER.get(n)
    if bands is not None:
        return bands

    def ratio(j):
        return (0.5 * (n + 1) + j) * (0.5 * (n + 2) + j) / ((n + 1.5 + j) * (1.0 + j))

    a = [1.0]
    for i in range(1, n + 1):
        a[0] *= i / (2.0 * i + 1.0)
    crossing = (n * n - n - 4) // 4 + 1

    def fits(J, t0):
        while len(a) < J + 2:
            a.append(a[-1] * ratio(len(a) - 1))
        u = 1.0 / (t0 * t0)
        rho = max([1.0] + [ratio(j) for j in range(J + 1, crossing + 1)])
        return rho * u < 1.0 and a[J + 1] * u ** (J + 1) / (1.0 - rho * u) <= 2.0 ** -53 * a[0]

    top = _Q_TOP_EDGE
    while not fits(_Q_TOP_DEGREE, top):
        top *= 2.0
    out = [(top, tuple(reversed(a[:_Q_TOP_DEGREE + 1])))]
    for t0 in _Q_BANDS:
        J = 0
        while not fits(J, t0):
            J += 1
        out.append((t0, tuple(reversed(a[:J + 1]))))
    bands = _Q_HORNER[n] = tuple(out)
    return bands


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
    t >= 2 takes the descending series in u = 1/t^2, cut at a fixed degree
    per t-band and evaluated by Horner (see _q_horner_bands for the
    remainder bound, at most 2^-53 relative); below, the upward recurrence
    stays where (2n + 1) xi <= 2, near t = 1, and _q_backward runs elsewhere.
    The mpf path keeps the upward recurrence and works with (2n + 1) (mag(t)
    + 1) extra bits, mag(t) >= log2 t, which covers its loss of about
    (2n + 1) xi / ln 2 bits since xi < ln 2t.  That loss exceeds a 272-bit
    mantissa for Q_2 from t ~ 2e16 on, which epsilon ~ 27 reaches in
    verify.verify_lower_bound.
    """
    if isinstance(t, mp.mpf):
        with mp.extraprec((2 * n + 1) * (mp.mag(t) + 1)):
            return _q_up(n, t, mp.log((t + 1) / (t - 1)) / 2)
    if t >= 2.0:
        for t0, coeffs in _Q_HORNER.get(n) or _q_horner_bands(n):
            if t >= t0:
                break
        u = 1.0 / (t * t)
        p = 0.0
        for a in coeffs:
            p = p * u + a
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


def _q_sum(n: int, ts) -> float:
    """fsum of _q_int(n, t) over the ascending floats ts.

    The arguments in the top t-band run through its degree-4 Horner step
    unrolled in one comprehension, the same arithmetic as _q_int; the rest
    go through _q_int.
    """
    top, (c4, c3, c2, c1, c0) = _q_horner_bands(n)[0]
    i = bisect_left(ts, top)
    e = -(n + 1)
    terms = [_q_int(n, t) for t in ts[:i]]
    terms += [((((c4 * u + c3) * u + c2) * u + c1) * u + c0) * t ** e
              for t in ts[i:] for u in (1.0 / (t * t),)]
    return math.fsum(terms)


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


def integer_recognize(x, ctx: PrecisionContext, err=0) -> int:
    """Round x to the nearest integer n if it is certified, else raise.

    err is the caller's absolute bound on |x - X| for the exact value X.
    n is accepted only if

        |x - n| + err + |x| 2^-mantissa_bits
            < min(INTEGER_TOLERANCE * max(1, sqrt|x|), 1/2),

    where the middle term covers the rounding of x itself.  The 1/2 cap is
    the certificate: if X is an integer, |X - n| < 1/2 forces X = n.  The
    sqrt-scaled tolerance only tightens the window for small values.
    Raises IntegerRecognitionError (a PrecisionError) with the residual
    distance and the shortfall ceil(log2(budget / allowed)) otherwise.
    """
    with ctx.workprec():
        x = mp.mpf(x)
        n = int(mp.nint(x))
        residual = abs(x - n)
        budget = residual + mp.mpf(err) + abs(x) * mp.mpf(2) ** (-ctx.mantissa_bits)
        threshold = min(
            mp.mpf(INTEGER_TOLERANCE) * max(mp.mpf(1), mp.sqrt(abs(x))),
            mp.mpf(0.5))
        if budget < threshold:
            return n
        raise IntegerRecognitionError(
            f"value is {mp.nstr(residual, 6)} away from the nearest integer "
            f"with error bound {mp.nstr(budget - residual, 6)} "
            f"(allowed {mp.nstr(threshold, 6)} in total)",
            residual=float(residual),
            short_bits=(int(mp.ceil(mp.log(budget / threshold, 2)))
                        if mp.isfinite(budget) else math.inf),
            error_bound=float(budget - residual),
        )


def recognize_with_retries(compute, ctx: PrecisionContext) -> list[int]:
    """Certify every value of compute(ctx) as an integer, retrying larger.

    compute receives the (possibly enlarged) context and returns a list of
    (x, err) pairs, err the absolute error bound of x; each pair must pass
    integer_recognize(x, current, err), else the whole computation reruns
    with max(bits, s + 64) more bits, s the first failure's shortfall (a
    plain doubling when s is not finite).  Fails after MAX_RETRIES retries
    with a PrecisionError naming the last failure's residual, error bound
    and shortfall.
    """
    current = ctx
    for _ in range(MAX_RETRIES + 1):
        values = compute(current)
        try:
            return [integer_recognize(x, current, err) for x, err in values]
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
