"""The j-function at arbitrary precision, Hecke cosets, modular polynomial values.

j is evaluated from its q-expansion (q = e^{2 pi i z}) after reduction to
the standard fundamental domain F, where |q| <= e^{-pi sqrt(3)} makes the
series decay geometrically.  The integer coefficients come from
E_4^3 / Delta, with Delta generated through the eighth power of Jacobi's
eta^3 series; they are computed once and extended on demand.  The series
runs in Python integers at the fixed binary scale 2^-P, P the working
precision, and every value carries an absolute error bound in units of
2^-P (JValue); mpmath only supplies q and 1/q.  modpoly_eval and classpoly
multiply these integers exactly, so their error bounds are integer
inequalities that hold at j = 0 as well, and hand their results to the
certifier as integers (numerics.Fixed).  A CM point is its reduced form
(quadforms.QuadForm); at two CM points modpoly_eval decides its zeros by
comparing reduced forms, not by a numeric test.  CM values are cached once
per class pair: the inverse class is served as the exact conjugate of the
cached value (j(-conj z) = conj j(z)), so a class and its inverse cost one
series.  A sweep fills the cache with every form its grid will read before
its instances run, and its pool workers fork with it (verify.sweep).

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
from typing import NamedTuple
from operator import mul

import mpmath as mp
from mpmath.libmp import from_man_exp, to_fixed

from .numerics import (
    GUARD_BITS,
    Fixed,
    PrecisionContext,
    PrecisionError,
    recognize_with_retries,
    arccosh,
)
from .quadforms import (QuadForm, enumerate_reduced, hecke_cosets, hecke_image, hecke_images,
                        reduce_form)

_FOUR_PI = 4 * math.pi

_jcoeff_lock = threading.Lock()
_jcoeffs: list[int] = []  # c_{-1}, c_0, c_1, ... with c_{-1} = 1, c_0 = 744
# Delta/q, E_4 and E_8, as long as _jcoeffs; see _extend_jcoeffs
_jseries: tuple[list[int], list[int], list[int]] = ([], [], [])

_jvalue_lock = threading.Lock()
# _pair_key(form) -> j at the form's point, serving any scale up to its own
_jvalue_cache: dict[QuadForm, JValue] = {}


def _divisor_power_sum(n: int, k: int) -> int:
    """Sum of d^k over the divisors d of n >= 1."""
    total, a = 0, 1
    while a * a <= n:
        if n % a == 0:
            b = n // a
            total += a ** k + (b ** k if b != a else 0)
        a += 1
    return total


def _extend_jcoeffs(coeffs: list[int], series: tuple[list[int], list[int], list[int]],
                    count: int) -> None:
    """Grow coeffs, the q-expansion of j q, to count terms in place.

    series holds Delta/q, E_4 and E_8 = E_4^2 (M_8 is one-dimensional) to as
    many terms as coeffs, and grows with it; only the new index of each
    series is computed per step.  Delta/q = (eta^3)^8 with eta^3 = sum_k
    (-1)^k (2k + 1) q^(k (k + 1) / 2), by the power recurrence: f = g^8 with
    g_0 = 1 has n f_n = sum_{i=1..n} (9 i - n) g_i f_(n-i) (from
    g f' = 8 g' f), and g is sparse.  E_4^3 = E_4 E_8 is one convolution,
    and j q = E_4^3 / (Delta/q) is exact division, as Delta/q starts with 1.
    """
    delta, e4, e8 = series
    for n in range(len(coeffs), count):
        if n == 0:
            delta_n = e4_n = e8_n = c_n = 1
        else:
            acc, k, i = 0, 1, 1
            while i <= n:
                acc += (9 * i - n) * (-1) ** k * (2 * k + 1) * delta[n - i]
                k += 1
                i = k * (k + 1) // 2
            delta_n = acc // n
            e4_n = 240 * _divisor_power_sum(n, 3)
            e8_n = 480 * _divisor_power_sum(n, 7)
            e4_cubed = (e4_n + e8_n
                        + sum(map(mul, e4[1:n], reversed(e8[1:n]))))
            c_n = e4_cubed - delta_n - sum(map(mul, coeffs[1:n], reversed(delta[1:n])))
        delta.append(delta_n)
        e4.append(e4_n)
        e8.append(e8_n)
        coeffs.append(c_n)


def j_q_coefficients(count: int) -> list[int]:
    """Coefficients c_{-1}..c_{count-2} of the j q-expansion (cached, and
    extended by the missing indices only)."""
    with _jcoeff_lock:
        if len(_jcoeffs) < count:
            _extend_jcoeffs(_jcoeffs, _jseries, count)
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


# q carries this many more fractional bits than the series; see _j_series
_Q_GUARD = 32
# units of 2^-scale in the error of every j-value; see _j_series
_J_ERROR_UNITS = 4


def _log_tail(top: int, lam: float) -> float:
    """Natural log of a bound on sum_{k > top} c_k |q|^k, |q| = e^-lam.

    With c_k <= e^(4 pi sqrt k) (Brisebarre-Philibert bound c_k <=
    e^(4 pi sqrt k) / (sqrt 2 k^(3/4))), the terms t_k = e^(4 pi sqrt k - lam k)
    fall with ratio at most rho = e^(2 pi / sqrt(top + 1) - lam) past top, so
    the tail is at most t_(top + 1) / (1 - rho).  Needs rho < 1, which holds
    for top >= 8 and lam >= pi sqrt 3 - 1.
    """
    k = top + 1
    rho = math.exp(2 * math.pi / math.sqrt(k) - lam)
    return _FOUR_PI * math.sqrt(k) - lam * k - math.log1p(-rho)


def _series_top(lam: float, log_target: float) -> int:
    """Least top >= 8 with _log_tail(top, lam) <= log_target."""
    # 4 pi sqrt(x) - lam x = log_target at this sqrt(x); start just below it
    root = (_FOUR_PI + math.sqrt(_FOUR_PI**2 - 4 * lam * log_target)) / (2 * lam)
    top = max(int(root * root) - 2, 8)
    while _log_tail(top, lam) > log_target:
        top += 1
    return top


class JValue(NamedTuple):
    """j in fixed point, four integers: within err 2^-scale of (re + i im) 2^-scale."""

    re: int
    im: int
    err: int
    scale: int

    @property
    def value(self):
        """(re + i im) 2^-scale as an exact mpc, whatever the precision."""
        return mp.make_mpc((from_man_exp(self.re, -self.scale),
                            from_man_exp(self.im, -self.scale)))

    @property
    def error(self):
        """The absolute error bound err 2^-scale, as an exact mpf."""
        return mp.mpf((self.err, -self.scale))

    def at_scale(self, scale: int) -> tuple[int, int, int]:
        """(re, im, err) at a scale no finer than self.scale: both parts
        are floored, which adds under sqrt 2 units of error."""
        shift = self.scale - scale
        if not shift:
            return self.re, self.im, self.err
        return (self.re >> shift, self.im >> shift,
                ((self.err - 1) >> shift) + 3)


def _inverse_q_bits(lam: float, scale: int) -> int:
    """Working bits for q and 1/q: the relative error of either, at most
    (8 lam + 32) 2^-bits, then moves e^lam 2^-bits below 2^(-scale - 7)."""
    return scale + int((lam + math.log(8 * lam + 32)) / math.log(2)) + 8


def _j_series(q, q_inv, lam: float, scale: int) -> JValue:
    """j = 1/q + sum_{k >= 0} c_k q^k in integers at the scale 2^-scale.

    q and 1/q are mpc values with relative error at most (8 lam + 32)
    2^-bits, bits = _inverse_q_bits(lam, scale), and |q| = e^-lam <= 0.00434
    (F has Im z >= sqrt 3 / 2).  q is floored to the scale 2^-(scale +
    _Q_GUARD) and Horner runs on integer pairs,
    acc = ((acc q) >> (scale + _Q_GUARD)) + (c << scale).  In units of
    2^-scale, the result is off from j by less than
      e^-1  for the tail past the top index (_series_top, with a margin of
            1 in the log target);
      1.43  for the Horner floors, under sqrt 2 per step and damped by |q|
            per later step: sqrt 2 / (1 - 0.00434);
      0.1   for the error of q, under sqrt 2 2^-_Q_GUARD from its floor plus
            e^-(2 lam) 2^-7 from its evaluation, times the derivative bound
            sum_k k c_k |q|^(k-1) < 2^19 (test_j_series_derivative_bound);
      1.43  for 1/q: its floor, under sqrt 2, and its evaluation, under 2^-7;
    which is under _J_ERROR_UNITS = 4 in all.
    """
    log_target = -scale * math.log(2) - 1
    coeffs = j_q_coefficients(_series_top(lam, log_target) + 2)
    shift = scale + _Q_GUARD
    qr = to_fixed(q.real._mpf_, shift)
    qi = to_fixed(q.imag._mpf_, shift)
    re = im = 0
    if qi:
        for c in reversed(coeffs[1:]):
            re, im = (((re * qr - im * qi) >> shift) + (c << scale),
                      (re * qi + im * qr) >> shift)
    else:  # q real (Re z in {0, 1/2}): j is real and so is every step
        for c in reversed(coeffs[1:]):
            re = ((re * qr) >> shift) + (c << scale)
    re += to_fixed(q_inv.real._mpf_, scale)
    im += to_fixed(q_inv.imag._mpf_, scale)
    return JValue(re, im, _J_ERROR_UNITS, scale)


def log_j_size(form: QuadForm) -> float:
    """pi sqrt|d| / a for a reduced form (a, b, c): 2 pi Im z at its point z,
    so |j(z)| is about e to this power."""
    return math.pi * math.sqrt(-form.disc) / form.a


def _pair_key(red: QuadForm) -> QuadForm:
    """A reduced form's cache key: itself if b >= 0, else its inverse class (a, -b, c)."""
    return red if red.b >= 0 else QuadForm(red.a, -red.b, red.c)


def j_eval(z, ctx: PrecisionContext) -> JValue:
    """j(z) as a JValue at the scale 2^-(ctx.mantissa_bits + GUARD_BITS).

    A form (a CM point) takes the exact path: reduced to (a, b, c), with
    q = e^(-pi sqrt|d| / a) e^(-i pi b / a) (real, with no rounded phase,
    when b/a is an integer), cached at the finest scale asked so far and
    served to any coarser request.  A class and its inverse share one entry
    (_pair_key): a reduced form has b < 0 only when 0 < |b| < a < c, and
    then (a, -b, c) is the inverse class, at -conj z, so the form is served
    the exact conjugate of that value (j(-conj z) = conj j(z)), with the
    same bound.  The error bound err 2^-scale is absolute (see _j_series),
    so it holds at j = 0 too.  Any other upper-half-plane number is reduced
    to F by fd_reduce first; its bound covers the series at the reduced
    point, which is taken as exact.
    """
    prec = ctx.mantissa_bits + GUARD_BITS
    if isinstance(z, QuadForm):
        red = reduce_form(z)
        key = _pair_key(red)
        value = _jvalue_cache.get(key)
        if value is None or value.scale < prec:
            lam = log_j_size(key)
            with mp.workprec(_inverse_q_bits(lam, prec)):
                phase = mp.expjpi(mp.mpf(-key.b) / key.a)
                size = mp.exp(-mp.pi * mp.sqrt(-key.disc) / key.a)
                value = _j_series(size * phase, mp.conj(phase) / size, lam, prec)
            with _jvalue_lock:  # keep a finer value cached meanwhile
                if key not in _jvalue_cache or _jvalue_cache[key].scale < prec:
                    _jvalue_cache[key] = value
        return value if key is red else value._replace(im=-value.im)
    lam = 2 * math.pi * fd_reduce(complex(z))[0].imag
    with mp.workprec(_inverse_q_bits(lam + 1, prec)):
        zz, _ = fd_reduce(mp.mpc(z))
        lam = 2 * math.pi * float(zz.imag)
        arg = 2j * mp.pi * zz
        return _j_series(mp.exp(arg), mp.exp(-arg), lam, prec)


def coset_apply(coset: tuple[int, int, int], z):
    """(a z + b) / d: for a form (a CM point) its primitive image form,
    unreduced (hecke_image); numerically otherwise."""
    if isinstance(z, QuadForm):
        return hecke_image(z, coset)
    a, b, d = coset
    return (a * z + b) / d


@dataclass(frozen=True)
class ModPolyValue:
    """phi_m(j(z1), j(z2)) as the exact product (re + i im) 2^-shift of
    the kept factors, within (top/low - 1) min(|true|, |product|) of the
    true value (modpoly_eval; low = 0: no bound).  value (an mpc at prec
    bits) and rel_error (which covers that rounding) are computed on read."""

    re: int
    im: int
    shift: int
    top: int
    low: int
    prec: int
    zero_cosets: tuple[tuple[int, int, int], ...]

    @property
    def is_zero(self) -> bool:
        return bool(self.zero_cosets)

    @property
    def value(self) -> mp.mpc:
        with mp.workprec(self.prec):
            return mp.mpc(mp.mpf((self.re, -self.shift)), mp.mpf((self.im, -self.shift)))

    @property
    def rel_error(self) -> mp.mpf:
        """(top - low)/low + 2^-prec top/low as an mpf, rounded up."""
        if not self.low:
            return mp.inf
        with mp.workprec(self.prec):
            return mp.fdiv(((self.top - self.low) << self.prec) + 2 * self.top,
                           self.low << self.prec, rounding="u")

    def log_abs(self):
        if self.is_zero:
            raise ZeroDivisionError("modular polynomial value is numerically zero")
        return mp.log(abs(self.value))


def modpoly_eval(m: int, z1, z2, ctx: PrecisionContext) -> ModPolyValue:
    """Product over Hecke cosets of (j(z1) - j((a z2 + b)/d)), in integers.

    Every j-value is read at the scale 2^-prec, prec = ctx.mantissa_bits +
    GUARD_BITS, so each factor is a Gaussian integer f over 2^prec, within
    e = err1 + errw units of its true value t; a form z2 (a CM point) takes
    its images from the memoised hecke_images.  |f|^2 > e^2, an integer
    comparison, proves f non-zero.  Otherwise, at two CM points, f is zero
    exactly when the primitive part of z1 reduces to the image w of z2 (j
    is injective on Y(1)); at other points it is flagged zero, which is
    not proven.  The other factors are multiplied exactly.  With
    L = isqrt(|f|^2), |f - t| <= e <= (L/(L - e) - 1) min(|f|, |t|), so
    top = prod L and low = prod (L - e) bound the product likewise; low is
    0 when a kept factor has L <= e, which the precision does not resolve.
    """
    prec = ctx.mantissa_bits + GUARD_BITS
    re1, im1, err1 = j_eval(z1, ctx).at_scale(prec)
    cosets = hecke_cosets(m)
    images = (hecke_images(z2, m) if isinstance(z2, QuadForm)
              else [coset_apply(coset, z2) for coset in cosets])
    # at two CM points, z1's point of Y(1): its primitive part, reduced
    exact = isinstance(z1, QuadForm) and isinstance(z2, QuadForm)
    home = exact and reduce_form(QuadForm(*(x // z1.content for x in (z1.a, z1.b, z1.c))))
    re, im, shift = 1, 0, 0
    top = low = 1
    zero_cosets = []
    for coset, w in zip(cosets, images):
        rew, imw, errw = j_eval(w, ctx).at_scale(prec)
        fr, fi, e = re1 - rew, im1 - imw, err1 + errw
        norm = fr * fr + fi * fi
        if norm <= e * e and (not exact or home == w):
            zero_cosets.append(coset)
            continue
        # Gauss: three products for (re + i im)(fr + i fi)
        k1 = fr * (re + im)
        re, im, shift = k1 - im * (fr + fi), k1 + re * (fi - fr), shift + prec
        size = math.isqrt(norm)
        top *= size
        low *= max(size - e, 0)
    return ModPolyValue(re, im, shift, top, low, prec, tuple(zero_cosets))


def _times_root(re: list[int], im: list[int], r: int, i: int, scale: int):
    """(re + i im)(X) times (X - (r + i i) 2^-scale), ascending Gaussian
    integer coefficients at the scale 2^-scale; each product is floored,
    which moves a coefficient by under sqrt 2 units."""
    lo_re, lo_im = re + [0], im + [0]
    return ([x - ((r * a - i * b) >> scale) for x, a, b in zip([0] + re, lo_re, lo_im)],
            [x - ((r * b + i * a) >> scale) for x, a, b in zip([0] + im, lo_re, lo_im)])


def _times_up(poly: list[int], a: int, scale: int) -> list[int]:
    """poly(X) times (X + a 2^-scale) for nonnegative poly and a, at the
    scale 2^-scale, every product rounded up."""
    return [x - ((-a * y) >> scale) for x, y in zip([0] + poly, poly + [0])]


def classpoly(d: int, ctx: PrecisionContext) -> list[int]:
    """Integer coefficients (ascending) of the class polynomial H_d.

    Each root r = j(z_form) is read at the scale 2^-s, s the working
    precision, as a Gaussian integer R over 2^s within E units (j_eval),
    and prod (X - R 2^-s) is expanded in Gaussian integers at the same
    scale, each product floored.  Let A = isqrt(|R|^2) + 1 >= |R|.  After
    i roots, the computed P~_i and the true P_i = prod (X - r) differ by

        P~_i - P_i = (P~_(i-1) - P_(i-1)) (X - R 2^-s)
                     + P_(i-1) (r - R 2^-s) + (floors),

    so coefficient by coefficient |P~_i - P_i| <= B_i with
    B_i = B_(i-1) (X + A) + E F_(i-1) + 2 and F_i = F_(i-1) (X + A + E)
    >= prod |X - r|, all in units of 2^-s and rounded up.  Without the
    floors this is coefficient k of prod (X + A + E) - prod (X + A).  The
    exact coefficient is real, so |Im c_k| is added to B_k.  Every
    coefficient is certified through recognize_with_retries, as the Fixed
    (c_k, B_k, s).  The initial
    precision is pre-estimated from log2 prod |j(z_form)| ~ sum over forms
    of pi sqrt(|d|) / (a ln 2), since |j(z)| ~ e^(2 pi Im z) and
    Im z_form = sqrt(|d|) / (2a), plus guard bits; recognize_with_retries
    sizes the retry if that falls short.
    """
    group = enumerate_reduced(d)
    estimate = int(sum(map(log_j_size, group.reduced_forms)) / math.log(2)) + 64

    def compute(current):
        scale = current.mantissa_bits + GUARD_BITS
        re, im, far, err = [1 << scale], [0], [1 << scale], [0]
        for form in group.reduced_forms:
            r, i, e = j_eval(form, current).at_scale(scale)
            size = math.isqrt(r * r + i * i) + 1
            re, im = _times_root(re, im, r, i, scale)
            err = [x - ((-e * y) >> scale) + 2
                   for x, y in zip(_times_up(err, size, scale), far + [0])]
            far = _times_up(far, size + e, scale)
        return [Fixed(c, b + abs(c_im), scale) for c, c_im, b in zip(re, im, err)]

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


def _bottom_rows(z2: complex, floor: float):
    """Yield (c, d, a0, wx0, yw) per coprime bottom row (c, d) of PSL2(Z),
    c > 0 or (0, 1), whose image of z2 has height yw = y2/|c z2 + d|^2 >= floor.

    gamma_n = (a0 + n c, b0 + n d; c, d), a0 = d^-1 mod c, has gamma_n z2
    = wx0 + n + i yw, wx0 = a0/c - (c x2 + d)/(c |c z2 + d|^2): no xgcd, no
    complex division.  yw and wx0 are computed from z2 alone, so a deeper
    floor yields the rows of a shallower one with the same values.
    """
    x2, y2 = z2.real, z2.imag
    if y2 <= 0 or not floor > 0:
        raise ValueError("z2 must lie in the upper half plane, over a positive floor")
    # |c z2 + d|^2 <= cap, with room so that rounding drops no row
    cap = y2 / floor * (1.0 + 2.0 ** -40)
    gcd, sqrt = math.gcd, math.sqrt
    for c in range(int(sqrt(cap) / y2) + 1):
        cy2sq = (c * y2) ** 2
        if cap < cy2sq:
            continue
        r = sqrt(cap - cy2sq)
        for d in (range(math.ceil(-c * x2 - r), math.floor(-c * x2 + r) + 1)
                  if c else (1,)):
            if c and gcd(c, d) != 1:
                continue
            q = c * x2 + d
            norm = q * q + cy2sq
            yw = y2 / norm
            if yw < floor:
                continue
            a0 = pow(d, -1, c) if c else 1
            yield c, d, a0, (a0 / c - q / (c * norm) if c else x2), yw


def gamma_translates(z1: complex, z2: complex, cosh_cut: float):
    """All (gamma, cosh d(z1, gamma z2)) with cosh distance <= cosh_cut.

    cosh d(z1, gamma_n z2) = 1 + ((x1 - wx0 - n)^2 + dy2)/den per bottom row
    (_bottom_rows), so only rows with y1/yw + yw/y1 <= 2 cosh_cut can come
    within cosh_cut, and only at n within sqrt(den (cosh_cut - 1) - dy2) of
    x1 - wx0.
    """
    x1, y1 = z1.real, z1.imag
    if y1 <= 0:
        raise ValueError("points must lie in the upper half plane")
    cut1 = cosh_cut - 1.0
    reach = cosh_cut + math.sqrt(max(cosh_cut * cosh_cut - 1.0, 0.0))
    out = []
    for c, d, a0, wx0, yw in _bottom_rows(z2, y1 / reach * (1.0 - 2.0 ** -40)):
        dy2 = (y1 - yw) ** 2
        den = 2.0 * y1 * yw
        rad = den * cut1 - dy2
        if rad < 0:
            continue
        r = math.sqrt(rad)
        b0 = (a0 * d - 1) // c if c else 0
        for n in range(math.ceil(x1 - wx0 - r), math.floor(x1 - wx0 + r) + 1):
            ch = 1.0 + ((x1 - wx0 - n) ** 2 + dy2) / den
            if ch <= cosh_cut:
                out.append(((a0 + n * c, b0 + n * d, c, d), ch))
    return out


def as_complex(z) -> complex:
    """A form's root (its CM point) or any upper-half-plane number, as a
    Python complex."""
    return z.approx() if isinstance(z, QuadForm) else complex(z)


def y1_distance(z1, z2) -> float:
    """min over gamma in Gamma of the hyperbolic distance d(z1, gamma z2)."""
    z1 = fd_reduce(as_complex(z1))[0]
    z2 = fd_reduce(as_complex(z2))[0]
    best = cosh_dist(z1, z2)
    return arccosh(min([best] + [ch for _, ch in gamma_translates(z1, z2, best + 1e-12)]))
