"""The j-function at arbitrary precision, Hecke cosets, modular polynomial values.

j is evaluated from its q-expansion (q = e^{2 pi i z}) after reduction to
the standard fundamental domain F, where |q| <= e^{-pi sqrt(3)} makes the
series decay geometrically.  The integer coefficients come from
E_4^3 / Delta, with Delta generated through the eighth power of Jacobi's
eta^3 series; they are computed once and extended on demand.

Coset convention: Gamma_m is ALL integer matrices of determinant m,
imprimitive ones included, so that the scalar matrix sqrt(m) I sits in
Gamma_m when m is a perfect square and phi_m(X, X) vanishes identically
there.  Consequently phi_m here equals the product of the classical
primitive modular polynomials Phi_{m/e^2} over e^2 | m; for squarefree m
the two notions agree.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import mpmath as mp

from .numerics import (
    GUARD_BITS,
    PrecisionContext,
    PrecisionError,
    recognize_with_retries,
    arccosh,
)
from .quadforms import CMPoint, cm_point, enumerate_reduced, reduce_form

_FOUR_PI = 4 * math.pi

_jcoeff_lock = threading.Lock()
_jcoeffs: list[int] = []  # c_{-1}, c_0, c_1, ... with c_{-1} = 1, c_0 = 744

_jvalue_lock = threading.Lock()
# reduced (a, b, d) -> (prec, j at prec bits), serving any prec up to its own
_jvalue_cache: dict[tuple[int, int, int], tuple[int, mp.mpc]] = {}


def _series_mul(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            top = n - i
            for j, bj in enumerate(b[:top]):
                if bj:
                    out[i + j] += ai * bj
    return out


def _compute_jcoeffs(count: int) -> list[int]:
    """First `count` coefficients of j = 1/q + 744 + 196884 q + ..."""
    n = count + 1
    eta3 = [0] * n
    k = 0
    while k * (k + 1) // 2 < n:
        eta3[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    delta_over_q = _series_mul(eta3, eta3, n)
    delta_over_q = _series_mul(delta_over_q, delta_over_q, n)
    delta_over_q = _series_mul(delta_over_q, delta_over_q, n)

    sigma3 = [0] * n
    for a in range(1, n):
        cube = a * a * a
        for mult in range(a, n, a):
            sigma3[mult] += cube
    e4 = [1] + [240 * sigma3[m] for m in range(1, n)]
    e4_cubed = _series_mul(_series_mul(e4, e4, n), e4, n)

    # j*q = E4^3 / (Delta/q), exact division since Delta/q starts with 1
    coeffs = [0] * n
    for i in range(n):
        acc = e4_cubed[i]
        for m in range(i):
            acc -= coeffs[m] * delta_over_q[i - m]
        coeffs[i] = acc
    return coeffs[:count]


def j_q_coefficients(count: int) -> list[int]:
    """Coefficients c_{-1}..c_{count-2} of the j q-expansion (cached)."""
    with _jcoeff_lock:
        if len(_jcoeffs) < count:
            fresh = _compute_jcoeffs(max(count, 2 * len(_jcoeffs), 64))
            del _jcoeffs[:]
            _jcoeffs.extend(fresh)
        return _jcoeffs[:count]


_FD_MAX_STEPS = 10_000


def fd_reduce(z):
    """Move z into the fundamental domain F; return (z', gamma) with z' = gamma z.

    z is a complex or anything mpmath reads as an mpc; the arithmetic stays
    in that type.  gamma is returned as the integer tuple (a, b, c, d).  A
    point is inverted only when |z|^2 < 1 - slack, the slack a few ulps of
    the working precision, so a point on the unit arc whose rounded norm
    falls just below 1 is accepted instead of bouncing across the arc.  Each
    inversion multiplies the imaginary part by more than 1/(1 - slack), so
    the loop terminates.
    """
    if isinstance(z, complex):
        inside = 1 - 2.0 ** -48
    else:
        z = mp.mpc(z)
        inside = 1 - mp.mpf(2) ** (4 - mp.mp.prec)
    if not z.imag > 0:
        raise ValueError("fd_reduce needs a point in the upper half plane")
    a, b, c, d = 1, 0, 0, 1
    for _ in range(_FD_MAX_STEPS):
        n = math.floor(z.real + 0.5)
        if n:
            z -= n
            a, b = a - n * c, b - n * d
        if z.real * z.real + z.imag * z.imag < inside:
            z = -1 / z
            a, b, c, d = -c, -d, a, b
            continue
        return z, (a, b, c, d)
    raise PrecisionError("fundamental-domain reduction did not terminate")


def _terms_needed(lam: float, log_tail: float) -> int:
    """Smallest n with e^{4 pi sqrt(n)} e^{-lam n} below e^{log_tail}.

    Uses the classical bound |c_n| <= e^{4 pi sqrt(n)} for the j coefficients;
    lam = -log|q| >= pi sqrt(3) after reduction to F.
    """
    big_l = -log_tail
    x = (_FOUR_PI + math.sqrt(_FOUR_PI**2 + 4 * lam * (big_l + lam))) / (2 * lam)
    return max(int(math.ceil(x * x)) + 4, 8)


def _j_log_tail_rel(ctx: PrecisionContext, prec: int) -> float:
    # natural log of the truncation target, relative to the leading 1/q term;
    # never looser than the context budget and always tightened along with the
    # mantissa.  Kept in log form so huge retry precisions cannot underflow.
    return min(math.log(ctx.series_tail_bound), -(prec + 8) * math.log(2))


def _j_from_q(q, n_terms: int):
    coeffs = j_q_coefficients(n_terms)
    acc = mp.mpc(0)
    for c in reversed(coeffs[1:]):
        acc = acc * q + c
    return acc + coeffs[0] / q


def j_eval(z, ctx: PrecisionContext):
    """j(z) for a CMPoint (exact path, cached per point at the highest
    precision asked so far) or any upper-half-plane number."""
    prec = ctx.mantissa_bits + GUARD_BITS
    if isinstance(z, CMPoint):
        red = reduce_form(z.form)
        key = (red.a, red.b, z.d)
        with _jvalue_lock:
            if _jvalue_cache.get(key, (0,))[0] >= prec:
                return _jvalue_cache[key][1]
        with mp.workprec(prec):
            zz = CMPoint(red.a, red.b, z.d).mpc(mp)
            lam = 2 * math.pi * float(mp.im(zz))
            n_terms = _terms_needed(lam, _j_log_tail_rel(ctx, prec) - lam)
            q = mp.exp(2j * mp.pi * zz)
            value = _j_from_q(q, n_terms)
            # CM values are real algebraic integers only for h=1; keep complex
            value = mp.mpc(value)
        with _jvalue_lock:
            if _jvalue_cache.get(key, (0,))[0] < prec:
                _jvalue_cache[key] = (prec, value)
        return value
    with mp.workprec(prec):
        zz, _ = fd_reduce(mp.mpc(z))
        lam = 2 * math.pi * float(mp.im(zz))
        n_terms = _terms_needed(lam, _j_log_tail_rel(ctx, prec) - lam)
        q = mp.exp(2j * mp.pi * zz)
        return _j_from_q(q, n_terms)


def j_relative_error(ctx: PrecisionContext):
    """Conservative relative error of a single j_eval at the context precision.

    Returned as an mpf so very high retry precisions do not underflow.
    """
    prec = ctx.mantissa_bits + GUARD_BITS
    tail = mp.exp(mp.mpf(_j_log_tail_rel(ctx, prec)))
    return tail + mp.mpf(2) ** (-(prec - 12))


@dataclass(frozen=True)
class HeckeCosetSet:
    """Upper-triangular representatives (a, b, d): a d = m, 0 <= b < d."""

    m: int
    reps: tuple[tuple[int, int, int], ...]

    def __len__(self):
        return len(self.reps)


def hecke_cosets(m: int) -> HeckeCosetSet:
    if m < 1:
        raise ValueError("m must be a positive integer")
    reps = []
    for a in range(1, m + 1):
        if m % a:
            continue
        d = m // a
        for b in range(d):
            reps.append((a, b, d))
    return HeckeCosetSet(m=m, reps=tuple(reps))


def coset_apply(coset: tuple[int, int, int], z):
    """(a z + b) / d, exactly for CMPoints, numerically otherwise."""
    a, b, d = coset
    if isinstance(z, CMPoint):
        # z root of A z^2 + B z + C; w = (a z + b)/d is a root of the integral
        # form (A d^2, (B a - 2 A b) d, A b^2 - B b d ... ) -- derived by
        # substituting z = (d w - b)/a into the quadratic of z.
        form = z.form
        aa, bb, cc = form.a, form.b, form.c
        # substitute z = (d w - b)/a: aa (d w - b)^2 + bb a (d w - b) + cc a^2 = 0
        a2 = aa * d * d
        b2 = (-2 * aa * b + bb * a) * d
        c2 = aa * b * b - bb * a * b + cc * a * a
        g = math.gcd(math.gcd(a2, abs(b2)), abs(c2)) if c2 else math.gcd(a2, abs(b2))
        if g > 1:
            a2, b2, c2 = a2 // g, b2 // g, c2 // g
        w = CMPoint(a2, b2, b2 * b2 - 4 * a2 * c2)
        return w
    return (a * z + b) / d


@dataclass(frozen=True)
class ModPolyValue:
    """phi_m(j(z1), j(z2)) together with a bound on its relative error.

    rel_error is an mpf, so it does not underflow at thousands of bits.
    """

    value: mp.mpc
    rel_error: mp.mpf
    zero_cosets: tuple[tuple[int, int, int], ...]

    @property
    def is_zero(self) -> bool:
        return bool(self.zero_cosets)

    def log_abs(self):
        if self.is_zero:
            raise ZeroDivisionError("modular polynomial value is numerically zero")
        return mp.log(abs(self.value))


def modpoly_eval(m: int, z1, z2, ctx: PrecisionContext) -> ModPolyValue:
    """Product over Hecke cosets of (j(z1) - j((a z2 + b)/d)).

    A factor is flagged zero only when its modulus falls below the factor's
    accumulated error bound; otherwise the nonzero value stands.
    """
    cosets = hecke_cosets(m)
    prec = ctx.mantissa_bits + GUARD_BITS
    eps_j = j_relative_error(ctx)
    with mp.workprec(prec):
        j1 = j_eval(z1, ctx)
        product = mp.mpc(1)
        rounding = mp.mpf(2) ** (-(prec - 4))
        rel_error = mp.mpf(0)
        zero_cosets = []
        for coset in cosets.reps:
            w = coset_apply(coset, z2)
            jw = j_eval(w, ctx)
            factor = j1 - jw
            abs_bound = (abs(j1) + abs(jw)) * eps_j
            if abs(factor) <= abs_bound:
                zero_cosets.append(coset)
                continue
            # relative errors compose as (1 + e)(1 + e_factor) - 1
            rel_factor = abs_bound / abs(factor) + rounding
            rel_error += rel_factor * (1 + rel_error)
            product *= factor
        return ModPolyValue(
            value=product,
            rel_error=rel_error,
            zero_cosets=tuple(zero_cosets),
        )


def classpoly(d: int, ctx: PrecisionContext) -> list[int]:
    """Integer coefficients (ascending) of the class polynomial H_d.

    Expands prod over reduced forms of (X - j(z_form)) and certifies every
    coefficient through recognize_with_retries.  Each root carries relative
    error at most eps (j_relative_error plus rounding), and each term of the
    k-th coefficient is a product of at most h roots, formed in at most h
    rounded steps, so |c_k - C_k| <= A_k ((1 + eps)^(2h) - 1), where A_k is
    the same coefficient of prod (X + |root|).  The exact C_k is real, so the
    imaginary part of c_k is added to the bound.  The initial precision is
    pre-estimated from log2 prod |j(z_form)| ~ sum over forms of
    pi sqrt(|d|) / (a ln 2), since |j(z)| ~ e^(2 pi Im z) and
    Im z_form = sqrt(|d|) / (2a), plus guard bits; recognize_with_retries
    sizes the retry if that falls short.
    """
    group = enumerate_reduced(d)
    h = group.h
    estimate = int(sum(math.pi * math.sqrt(-d) / form.a
                       for form in group.reduced_forms) / math.log(2)) + 64

    def compute(current):
        eps = (j_relative_error(current)
               + mp.mpf(2) ** (-(current.mantissa_bits + GUARD_BITS - 4)))
        with current.workprec():
            coeffs = [mp.mpc(1)]
            absolute = [mp.mpf(1)]
            for form in group.reduced_forms:
                root = j_eval(cm_point(form), current)
                size = abs(root)
                coeffs = [mp.mpc(0)] + coeffs
                absolute = [mp.mpf(0)] + absolute
                for i in range(len(coeffs) - 1):
                    coeffs[i] -= root * coeffs[i + 1]
                    absolute[i] += size * absolute[i + 1]
            growth = (1 + eps) ** (2 * h) - 1
            return [(mp.re(c), a * growth + abs(mp.im(c)))
                    for c, a in zip(coeffs, absolute)]

    return recognize_with_retries(
        compute, ctx.with_bits(max(ctx.mantissa_bits, estimate)))


# ---------------------------------------------------------------------------
# hyperbolic geometry on Y(1)


def cosh_dist(z1, z2):
    """cosh of the hyperbolic distance, 1 + |z1 - z2|^2 / (2 y1 y2).

    Works on both native complex and mpmath mpc, preserving the input
    precision.
    """
    x1, y1 = z1.real, z1.imag
    x2, y2 = z2.real, z2.imag
    if not (y1 > 0 and y2 > 0):
        raise ValueError("points must lie in the upper half plane")
    return 1 + ((x1 - x2) ** 2 + (y1 - y2) ** 2) / (2 * y1 * y2)


def _bottom_rows(z1: complex, z2: complex, cosh_cut: float):
    """Yield (c, d, a0, wx0, dy2, den, n_lo, n_hi) per coprime bottom row
    (c, d) of PSL2(Z), c > 0 or (0, 1), that can come within cosh_cut.

    gamma_n = (a0 + n c, b0 + n d; c, d), a0 = d^-1 mod c, has Re gamma_n z2
    = wx0 + n, wx0 = a0/c - (c x2 + d)/(c |c z2 + d|^2): no xgcd, no complex
    division.  cosh d(z1, gamma_n z2) = 1 + ((x1 - wx0 - n)^2 + dy2) / den
    <= cosh_cut only for n_lo <= n <= n_hi; rows need y1/yw + yw/y1 <= 2 T.
    """
    x1, y1 = z1.real, z1.imag
    x2, y2 = z2.real, z2.imag
    if y1 <= 0 or y2 <= 0:
        raise ValueError("points must lie in the upper half plane")
    # |c z2 + d|^2 <= cap = y2 / (least reachable Im)
    cap = y2 * (cosh_cut + math.sqrt(max(cosh_cut * cosh_cut - 1.0, 0.0))) / y1
    cut1 = cosh_cut - 1.0
    gcd, sqrt, ceil, floor = math.gcd, math.sqrt, math.ceil, math.floor
    for c in range(int(sqrt(cap) / y2) + 1):
        cy2sq = (c * y2) ** 2
        if cap < cy2sq:
            continue
        r = sqrt(cap - cy2sq)
        for d in range(ceil(-c * x2 - r), floor(-c * x2 + r) + 1) if c else (1,):
            if c and gcd(c, d) != 1:
                continue
            q = c * x2 + d
            norm = q * q + cy2sq
            yw = y2 / norm
            dy2 = (y1 - yw) ** 2
            den = 2.0 * y1 * yw
            rad = den * cut1 - dy2
            if rad < 0:
                continue
            a0 = pow(d, -1, c) if c else 1
            wx0 = a0 / c - q / (c * norm) if c else x2
            r = sqrt(rad)
            yield c, d, a0, wx0, dy2, den, ceil(x1 - wx0 - r), floor(x1 - wx0 + r)


def gamma_translates(z1: complex, z2: complex, cosh_cut: float):
    """All (gamma, cosh d(z1, gamma z2)) with cosh distance <= cosh_cut."""
    x1 = z1.real
    out = []
    for c, d, a0, wx0, dy2, den, n_lo, n_hi in _bottom_rows(z1, z2, cosh_cut):
        b0 = (a0 * d - 1) // c if c else 0
        for n in range(n_lo, n_hi + 1):
            ch = 1.0 + ((x1 - wx0 - n) ** 2 + dy2) / den
            if ch <= cosh_cut:
                out.append(((a0 + n * c, b0 + n * d, c, d), ch))
    return out


def cosh_translates(z1: complex, z2: complex, cosh_cut: float) -> list[float]:
    """The distances of gamma_translates alone, unsorted."""
    x1 = z1.real
    out = []
    append = out.append
    for _, _, _, wx0, dy2, den, n_lo, n_hi in _bottom_rows(z1, z2, cosh_cut):
        base = x1 - wx0
        for n in range(n_lo, n_hi + 1):
            ch = 1.0 + ((base - n) ** 2 + dy2) / den
            if ch <= cosh_cut:
                append(ch)
    return out


def y1_cosh_distance(z1: complex, z2: complex) -> float:
    """cosh of the distance between the images of z1, z2 on Y(1)."""
    z1 = fd_reduce(complex(z1))[0]
    z2 = fd_reduce(complex(z2))[0]
    best = cosh_dist(z1, z2)
    return min([best] + cosh_translates(z1, z2, best + 1e-12))


def y1_distance(z1, z2) -> float:
    """min over gamma in Gamma of the hyperbolic distance d(z1, gamma z2)."""
    if isinstance(z1, CMPoint):
        z1 = z1.approx()
    if isinstance(z2, CMPoint):
        z2 = z2.approx()
    return arccosh(y1_cosh_distance(complex(z1), complex(z2)))
