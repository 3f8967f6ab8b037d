"""The j-function at arbitrary precision, Hecke cosets, modular polynomial values.

j is evaluated from its q-expansion (q = e^{2 pi i z}) after reduction to
the standard fundamental domain F, where |q| <= e^{-pi sqrt(3)} makes the
series decay geometrically.  The integer coefficients come from
E_4^3 / Delta, with E_4^3 = E_12 + (432000/691) Delta and Delta generated
through the eighth power of Jacobi's eta^3 series; they are computed once
and extended on demand.  One kernel sums the series at every point, by
rectangular splitting (Paterson-Stockmeyer) on Gaussian integers at a
fixed binary scale, and every value carries an absolute error bound in
units of 2^-P, P the working precision (JValue).  At a CM point q and 1/q
are built from integers: mpmath's libmp supplies pi and exp as raw
mantissas, and the phase, a root of unity, is refined by integer Newton
steps, so no mpf or mpc object is made; at any other point mpmath's q is
converted to that scale.  modpoly_eval multiplies these integers into a
product cut to the working precision, with one relative error budget,
and classpoly expands its polynomial from them under an absolute bound
per coefficient; both bounds are integer inequalities that hold at j = 0
as well, and the results reach the certifier as integers
(numerics.Fixed).  A CM point is its reduced form (quadforms.QuadForm);
at two CM points modpoly_eval decides its zeros by comparing reduced
forms, not by a numeric test.  CM values are cached once per class pair:
the inverse class is served as the exact conjugate of the cached value
(j(-conj z) = conj j(z)), so a class and its inverse cost one series.
A sweep fills the cache with every form its grid will read before its
instances run, and its pool workers fork with it (verify.sweep).

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
from mpmath.libmp import from_man_exp, mpf_exp, mpf_pi, to_fixed

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
# Delta/q, as long as _jcoeffs; see _extend_jcoeffs
_jseries: list[int] = []

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


def _extend_jcoeffs(coeffs: list[int], delta: list[int], count: int) -> None:
    """Grow coeffs, the q-expansion of j q, to count terms in place.

    delta holds Delta/q = sum_n tau(n + 1) q^n to as many terms as coeffs,
    and grows with it; only the new index is computed per step.  Delta/q =
    (eta^3)^8 with eta^3 = sum_k (-1)^k (2k + 1) q^(k (k + 1) / 2), by the
    power recurrence: f = g^8 with g_0 = 1 has n f_n = sum_{i=1..n}
    (9 i - n) g_i f_(n-i) (from g f' = 8 g' f), and g is sparse.  M_12 is
    spanned by E_12 and Delta, and E_4^3 = E_12 + (432000 / 691) Delta, so
    the coefficient of q^n in E_4^3, n >= 1, is (65520 sigma_11(n) +
    432000 tau(n)) / 691; j q = E_4^3 / (Delta/q) is exact division, one
    convolution per index, as Delta/q starts with 1.
    """
    for n in range(len(coeffs), count):
        if n == 0:
            delta_n = c_n = 1
        else:
            acc, k, i = 0, 1, 1
            while i <= n:
                acc += (9 * i - n) * (-1) ** k * (2 * k + 1) * delta[n - i]
                k += 1
                i = k * (k + 1) // 2
            delta_n = acc // n
            e4_cubed = (65520 * _divisor_power_sum(n, 11) + 432000 * delta[n - 1]) // 691
            c_n = e4_cubed - delta_n - sum(map(mul, coeffs[1:n], reversed(delta[1:n])))
        delta.append(delta_n)
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


# fractional bits of q, 1/q and the series past scale + ceil(m lam / ln 2)
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


def _series_shape(lam: float, scale: int) -> tuple[int, int, int]:
    """(top, m, w) of the series at the scale 2^-scale and |q| = e^-lam: its
    top index, the block length ceil(sqrt(top + 1)) and the fractional bits
    of q, 1/q and every product (_j_series)."""
    top = _series_top(lam, -scale * math.log(2) - 1)
    m = math.isqrt(top) + 1
    return top, m, scale + math.ceil(m * lam / math.log(2)) + _Q_GUARD


def _gauss_mul(ar: int, ai: int, br: int, bi: int, shift: int) -> tuple[int, int]:
    """(ar + i ai)(br + i bi) 2^-shift by three products, both parts floored."""
    k1 = br * (ar + ai)
    return (k1 - ai * (br + bi)) >> shift, (k1 + ar * (bi - br)) >> shift


def _j_series(q, q_inv, shape: tuple[int, int, int], scale: int) -> JValue:
    """j = 1/q + sum_{k >= 0} c_k q^k in integers at the scale 2^-scale.

    q and 1/q are Gaussian integers at 2^-w, (top, m, w) = shape =
    _series_shape(lam, scale), within e_q < 3 and 7 e^(2 lam) units of
    2^-w, and |q| = e^-lam <= 0.00434 (F has Im z >= sqrt 3 / 2).  By rectangular splitting
    (Paterson-Stockmeyer) the powers P_i ~ q^i 2^w, i <= m, are floored
    products, each block sum_{i < m} c_(jm+i) P_i is exact, and Horner runs
    in P_m, acc = ((acc P_m) >> w) + block, so a series costs about
    2 sqrt(top) products of w bits; a real q (a | b) runs real parts alone.
    In units of 2^-w, P_i is within eps_i <= i (sqrt 2 + e_q) of q^i 2^w (a
    floor of under sqrt 2 per product, and |q| < 1), so term k = jm + i,
    c_k P_i P_m^j 2^-(j+1)w, is off from c_k q^k 2^w by at most (1 + 2^-40)
    c_k (eps_i |q|^(jm) + |q|^i j eps_m |q|^(m(j-1))) <= (1 + 2^-40)
    e^(m lam) (sqrt 2 + e_q) k c_k |q|^k: the blocks amplify by up to
    |q|^-m, which the guard ceil(m lam / ln 2) covers.  With sum_k k c_k
    |q|^k < 2^11 (test_j_series_derivative_bound) that is under 2^14
    e^(m lam); the Horner floors add under sqrt 2 per step, damped by |q|^m,
    so 1.5, and 1/q under 7 e^(2 lam) with m >= 3.  As w - scale = ceil(m
    lam / ln 2) + _Q_GUARD, all of that is under 2^-17 units of 2^-scale.
    In units of 2^-scale the result is off from j by less than e^-1 for the
    tail past top, 2^-17 for the work at 2^-w and sqrt 2 for the final
    floor: under _J_ERROR_UNITS = 4 in all.
    """
    top, m, w = shape
    coeffs = j_q_coefficients(top + 2)[1:]  # c_0 .. c_top
    # q real (a | b, or Re z in {0, 1/2}): j is real, one product per step
    times = _gauss_mul if q[1] else lambda ar, ai, br, bi, shift: ((ar * br) >> shift, 0)
    powers = [(1 << w, 0), q]
    for _ in range(m - 1):
        powers.append(times(*powers[-1], *q, w))
    qm = powers.pop()
    pow_re, pow_im = zip(*powers)
    re = im = 0
    for j in reversed(range(0, top + 1, m)):
        block = coeffs[j:j + m]
        re, im = times(re, im, *qm, w)
        re, im = re + sum(map(mul, block, pow_re)), im + sum(map(mul, block, pow_im))
    cut = w - scale
    return JValue((re + q_inv[0]) >> cut, (im + q_inv[1]) >> cut, _J_ERROR_UNITS, scale)


# bits past 2^-w at which _phase refines, and the bits of its float seed
_PHASE_GUARD = 16
_PHASE_SEED = 48
# reduced (num, den) -> (p, re, im): e^(i pi num / den) at 2^-p, the finest so far
_phases: dict[tuple[int, int], tuple[int, int, int]] = {}


def _root_step(x: int, y: int, n: int, p: int) -> tuple[int, int]:
    """One Newton step z - z (z^n - 1) / n towards a root of z^n = 1, z =
    (x + i y) 2^-p, in integers at 2^-p (see _phase)."""
    zr, zi = x, y
    for bit in bin(n)[3:]:  # square-and-multiply, every product floored
        zr, zi = ((zr + zi) * (zr - zi)) >> p, (zr * zi) >> p - 1
        if bit == "1":
            zr, zi = _gauss_mul(zr, zi, x, y, p)
    cr, ci = _gauss_mul(x, y, zr - (1 << p), zi, p)
    return x - cr // n, y - ci // n


def _phase(num: int, den: int, w: int) -> tuple[int, int]:
    """e^(i pi num / den), |num| <= den, as a Gaussian integer at 2^-w, each
    part floored: exact when den | 2 num (the phase is +-1 or +-i), else
    within 1 + 6 2^-16 < 2.3 units of 2^-w per part.

    The phase z0 is a root of z^n = 1, n = 2 den / gcd(2 den, num) >= 3.  A
    step of _root_step at p bits maps z, |z - z0| = delta with n delta <=
    2^-10, to within n delta^2 + 5.3 units of 2^-p of z0:
      * exactly, z (1 - (z^n - 1) / n) = z0 (1 - u^2 - (1 + u) R / n) for
        z = z0 (1 + u), R = (1 + u)^n - 1 - n u, |R| <= (n |u|)^2 e^(n|u|) / 2,
        so it is within (1 + 0.52 n) delta^2 <= n delta^2 of z0;
      * the powers stay within 1 + 2^-9 of the unit circle, so a floored
        product adds under sqrt 2 units and grows earlier errors by at most
        1 + 2^-9; square-and-multiply makes at most 70 products (n < 2^35),
        and without that growth the power z^k is within 2 sqrt 2 (k - 1)
        (induction over k -> 2k, 2k + 1), so z^n is within 1.15 2 sqrt 2 n
        < 3.3 n units;
      * z (z^n - 1) then adds 3.3 (1 + 2^-9) + sqrt 2 / n and the division
        by n one unit per part: 5.3 units in all (n >= 3).
    So if z is within 6 units of 2^-p', 2 p' >= p + bitlength(n) + 6, the
    step leaves it within 36 n 2^-2p' + 5.3 2^-p <= 6 2^-p, and n delta
    <= 6 n 2^-48 <= 2^-10 from 48 bits on.  The float seed e^(i pi num /
    den) at 2^-48 is within 6 units (|num / den| <= 1: libm's cos and sin,
    on an argument within 2^-49.8 of pi num / den, are within 0.4 units;
    truncation adds one per part).  The steps run at precisions that halve
    down from w + _PHASE_GUARD to the seed's or to the finest phase memoised
    for the reduced fraction, which is reused as it stands when fine
    enough; the final floor to 2^-w adds under one unit per part to 6
    2^-16.
    """
    if 2 * num % den == 0:
        return ((1 << w, 0), (0, 1 << w), (-1 << w, 0), (0, -1 << w))[2 * num // den % 4]
    g = math.gcd(num, den)
    key = (num // g, den // g)
    n = 2 * den // math.gcd(2 * den, num)
    if n.bit_length() > 35:
        raise ValueError(f"phase of order {n} is past the Newton step's range")
    target = w + _PHASE_GUARD
    p, x, y = _phases.get(key) or (_PHASE_SEED, *(
        int(math.ldexp(f(math.pi * num / den), _PHASE_SEED)) for f in (math.cos, math.sin)))
    if p < target:
        steps, grow = [target], n.bit_length() + 7
        while (steps[-1] + grow) // 2 > p:
            steps.append((steps[-1] + grow) // 2)
        for step in reversed(steps):
            x, y = _root_step(x << step - p, y << step - p, n, step)
            p = step
        _phases[key] = (p, x, y)
    return x >> p - w, y >> p - w


def _cm_q(form: QuadForm, w: int):
    """q and 1/q at a reduced form's point, Gaussian integers at 2^-w.

    q = e^-x e^(i pi t), x = pi sqrt|d| / a, t = -b/a.  At p = w +
    bitlength|d|, X = floor(pi 2^p) isqrt(|d| 2^(2p)) // (a 2^p) is within
    sqrt|d| + 5 units of x 2^p, so R, e^(-X 2^-p) at w bits floored to 2^-w,
    is within 0.01 + 1.02 of e^-x 2^w; the phase, cos and sin pi t from
    _phase, within 2.3 per part (exactly +-1 or +-i when a | 2b).  So q,
    their floored product, is within 2.5 units, and 1/q, floor(2^(2w) / R)
    times the conjugate phase, within 1.05 e^(2x) + 3.3 e^x + 2.5 < 7 e^(2x).
    """
    n = -form.disc
    p = w + n.bit_length()
    big_x = to_fixed(mpf_pi(p + 2), p) * math.isqrt(n << 2 * p) // (form.a << p)
    r = to_fixed(mpf_exp(from_man_exp(-big_x, -p), w), w)
    cos, sin = _phase(-form.b, form.a, w)
    r_inv = (1 << 2 * w) // r
    return (((r * cos) >> w, (r * sin) >> w),
            ((r_inv * cos) >> w, -(r_inv * sin) >> w))


def log_j_size(form: QuadForm) -> float:
    """pi sqrt|d| / a for a reduced form (a, b, c): 2 pi Im z at its point z,
    so |j(z)| is about e to this power."""
    return math.pi * math.sqrt(-form.disc) / form.a


def _pair_key(red: QuadForm) -> QuadForm:
    """A reduced form's cache key: itself if b >= 0, else its inverse class (a, -b, c)."""
    return red if red.b >= 0 else QuadForm(red.a, -red.b, red.c)


def j_eval(z, ctx: PrecisionContext) -> JValue:
    """j(z) as a JValue at the scale 2^-(ctx.mantissa_bits + GUARD_BITS).

    Both branches hand q and 1/q, Gaussian integers at 2^-w (_series_shape),
    to the one kernel _j_series, whose bound err 2^-scale is absolute, so it
    holds at j = 0 too.  A form (a CM point) is reduced to (a, b, c), its q
    = e^(-pi sqrt|d| / a) e^(-i pi b / a) built from integers (_cm_q; real
    when a | b), and its value cached at the finest scale asked so far and
    served to any coarser request.  A class and its inverse share one entry
    (_pair_key): a reduced form has b < 0 only when 0 < |b| < a < c, and
    then (a, -b, c) is the inverse class, at -conj z, so the form is served
    the exact conjugate of that value (j(-conj z) = conj j(z)), with the
    same bound.  Any other upper-half-plane number is reduced to F by
    fd_reduce, and mpmath's e^(+-2 pi i z) at w bits (relative error
    (8 lam + 32) 2^-w) floored to 2^-w: q within 0.33 + sqrt 2 < 3 units,
    1/q within 7 e^(2 lam).  Its bound covers the series at the reduced
    point, which is taken as exact, with lam from the float reduction.
    """
    prec = ctx.mantissa_bits + GUARD_BITS
    if isinstance(z, QuadForm):
        red = reduce_form(z)
        key = _pair_key(red)
        value = _jvalue_cache.get(key)
        if value is None or value.scale < prec:
            shape = _series_shape(log_j_size(key), prec)
            value = _j_series(*_cm_q(key, shape[2]), shape, prec)
            with _jvalue_lock:  # keep a finer value cached meanwhile
                if key not in _jvalue_cache or _jvalue_cache[key].scale < prec:
                    _jvalue_cache[key] = value
        return value if key is red else value._replace(im=-value.im)
    shape = _series_shape(2 * math.pi * fd_reduce(complex(z))[0].imag, prec)
    w = shape[2]
    with mp.workprec(w):
        zz, _ = fd_reduce(mp.mpc(z))  # before pi: a huge w overflows here
        arg = 2j * mp.pi * zz
        q = [(to_fixed(v.real._mpf_, w), to_fixed(v.imag._mpf_, w))
             for v in (mp.exp(arg), mp.exp(-arg))]
    return _j_series(*q, shape, prec)


def coset_apply(coset: tuple[int, int, int], z):
    """(a z + b) / d: for a form (a CM point) its primitive image form,
    unreduced (hecke_image); numerically otherwise."""
    if isinstance(z, QuadForm):
        return hecke_image(z, coset)
    a, b, d = coset
    return (a * z + b) / d


@dataclass(frozen=True)
class ModPolyValue:
    """phi_m(j(z1), j(z2)) as (re + i im) 2^-shift, the product of the kept
    factors cut to prec + 3 bits, within (e^S - 1) min(|true|, |product|)
    of the true value, S = budget 2^-(prec + 64) (modpoly_eval; budget
    inf: no bound).  value (an mpc at prec bits) and rel_error (which
    covers that rounding) are computed on read."""

    re: int
    im: int
    shift: int
    budget: int | float
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
        """g + 2^(1 - prec) (1 + g) as an mpf, rounded up, with g >= e^S - 1:
        S (1 + S) for S <= 1, else 3^ceil(S)."""
        if self.budget == math.inf:
            return mp.inf
        unit = self.prec + 64
        one, s = 1 << unit, self.budget
        grow = s * (one + s) if s <= one else 3 ** -(-s >> unit) << 2 * unit
        with mp.workprec(self.prec):
            return mp.fdiv((grow << self.prec) + 2 * (one * one + grow),
                           one * one << self.prec, rounding="u")

    def log_abs(self):
        if self.is_zero:
            raise ZeroDivisionError("modular polynomial value is numerically zero")
        return mp.log(abs(self.value))


def modpoly_eval(m: int, z1, z2, ctx: PrecisionContext) -> ModPolyValue:
    """Product over Hecke cosets of (j(z1) - j((a z2 + b)/d)), in integers.

    Every j-value is read at the scale 2^-W, W = ctx.mantissa_bits +
    GUARD_BITS, so each factor is a Gaussian integer f over 2^W, within
    e = err1 + errw units of its true value t; a form z2 (a CM point) takes
    its images from the memoised hecke_images.  max(|Re f|, |Im f|) > e,
    or failing that |f|^2 > e^2, an integer comparison, proves f non-zero.
    Otherwise, at two CM points, f is zero exactly when the primitive part
    of z1 reduces to the image w of z2 (j is injective on Y(1)); at other
    points it is flagged zero, which is not proven.  The other factors
    multiply a running product, cut after each factor to W + 3 bits of its
    larger part.  The budget S, in units of 2^-U, U = W + 64, adds per
    factor ceil(e 2^U / (D 2^k)), D = isqrt(hr^2 + hi^2) - ceil(e / 2^k),
    hr and hi the 64-bit heads |Re f| >> k and |Im f| >> k: D 2^k <= |f| -
    e <= min(|f|, |t|), so |f - t| <= e <= (e 2^-k / D) min(|f|, |t|).  A
    cut moves a product of at least 2^(W + 2) units by under sqrt 2 of them,
    under 2^(1 - W) of the smaller of before and after, and adds 2^(1 - W).
    Each step thus multiplies by some 1 + delta, and its inverse by some
    1 + delta', |delta|, |delta'| <= its share; so the product v and the
    true t obey |v - t| <= (e^S - 1) min(|v|, |t|).  The budget is inf
    when a kept factor has D <= 0, which the precision does not resolve.
    """
    prec = ctx.mantissa_bits + GUARD_BITS
    unit = prec + 64
    re1, im1, err1 = j_eval(z1, ctx).at_scale(prec)
    cosets = hecke_cosets(m)
    images = (hecke_images(z2, m) if isinstance(z2, QuadForm)
              else [coset_apply(coset, z2) for coset in cosets])
    # at two CM points, z1's point of Y(1): its primitive part, reduced
    exact = isinstance(z1, QuadForm) and isinstance(z2, QuadForm)
    home = exact and reduce_form(QuadForm(*(x // z1.content for x in (z1.a, z1.b, z1.c))))
    re, im, shift, budget = 1, 0, 0, 0
    zero_cosets = []
    for coset, w in zip(cosets, images):
        rew, imw, errw = j_eval(w, ctx).at_scale(prec)
        fr, fi, e = re1 - rew, im1 - imw, err1 + errw
        hr, hi = abs(fr), abs(fi)
        if hr <= e and hi <= e and fr * fr + fi * fi <= e * e and (not exact or home == w):
            zero_cosets.append(coset)
            continue
        k = max(max(hr, hi).bit_length() - 64, 0)
        size = math.isqrt((hr >> k) ** 2 + (hi >> k) ** 2) + (-e >> k)
        budget += -(-(e << unit) // (size << k)) if size > 0 else math.inf
        # Gauss: three products for (re + i im)(fr + i fi), then the cut
        k1 = fr * (re + im)
        re, im = k1 - im * (fr + fi), k1 + re * (fi - fr)
        cut = max(max(re.bit_length(), im.bit_length()) - prec - 3, 0)
        re, im, shift = re >> cut, im >> cut, shift + prec - cut
        budget += bool(cut) << 65
    return ModPolyValue(re, im, shift, budget, prec, tuple(zero_cosets))


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
