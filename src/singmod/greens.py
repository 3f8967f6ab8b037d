"""Automorphic Green's functions on the modular curve and Hecke graph geometry.

The building block is the point-pair kernel g_s(z1, z2) = -2 Q_{s-1}(cosh d)
with d the hyperbolic distance; G_s averages it over the modular group and
G_k^m additionally over the determinant-m Hecke cosets.

Lattice sums, for G_s and for each Hecke coset of G_k^m, come from one
routine, _lattice_sums, by the row Fourier expansion (Gross-Zagier,
Heegner points and derivatives of L-series, II.2; Iwaniec, Spectral
Methods of Automorphic Forms, 1.9 and ch. 3).  The orbit of z2 splits into
rows: a coprime bottom row (c, d) (c > 0, or (0, 1); modular._bottom_rows)
and its translates by n.  With z1 = x1 + i y1 the higher reduced point and
w = x + i y the row's image of z2 (y <= y1), Poisson summation gives

    sum_n Q_{s-1}(cosh d(z1, w + n))
        = 2 pi/(2s-1) y1^(1-s) y^s + 2 sum_(k>=1) F_k cos(2 pi k (x1 - x)),
    F_k = 2 pi sqrt(y1 y) I_{s-1/2}(2 pi k y) K_{s-1/2}(2 pi k y1),

and the zero modes of all rows add up to 2 pi/(2s-1) y1^(1-s) E(z2, s),
the Eisenstein series, exactly.  Every omission is a checked inequality:
each mode series stops under a geometric bound, rows within 1/20 of y1
(_ROW_GAP) are summed in n with a tail from t^s Q_{s-1}(t) falling in t,
and all rows below a height Y are bounded by M_s(Y) (E(z2, s) -
sum_(y >= Y) y^s), as I_nu(x) x^-nu rises with x, Y the first of y1/2,
y1/4, ... where that bound meets its share; a rounding allowance covers the
float terms.  So the exact sum lies within the reported bound, which meets
the budget.
A budget below the rounding floor is refused (TailBudgetError) before any
enumeration, one needing more than _MAX_ROWS rows before enumerating past
them, and a budget that is not positive at once (ValueError).  Lattice sums
take integer s >= 2 only; the bounds use k = 3, 5, 7 (Gross-Kohnen-Zagier).
G_k_m is the one point-pair entry for G_k^m: k = 1 is the
modular-polynomial logarithm, and k = 3, 5, 7 one lattice sum per Hecke
coset.  A cycle's G_k^m (G_ks_m_cycle) sums once per class-pair key
(class_pair_key).  The point-pair kernel is g_s_truncated, in mpf through
numerics.legendre_Q; g_s is its one-term case.

Walks share work through two memoised functions: each lower point's rows
down to each power of two (_rows_from, which _orbit_rows cuts at the
floor asked for), and each row height's Bessel-I factors (_i_column).  A
row's height and offset are computed from the lower point alone, a floor's
rows are a prefix of any deeper floor's, and a cached factor is the value
it would be recomputed as; so every result is a function of its points, s
and budget only, whatever the caches hold, the order of the walks or the
process they run in.

For Laplacian eigenfunction checks use gamma_orbit + g_s_truncated: every
single gamma-term is an exact eigenfunction in z1, so a truncated sum over a
FIXED set of group elements is one too, and finite differences see no
truncation noise.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import mpmath as mp

from .numerics import PrecisionContext, _q_int, legendre_Q
from .quadforms import QuadForm, conjugate_key, hecke_images
from .modular import (
    _bottom_rows,
    _divisor_power_sum,
    as_complex,
    cosh_dist,
    coset_apply,
    fd_reduce,
    gamma_translates,
    hecke_cosets,
    modpoly_eval,
    y1_distance,
)

_SQRT2 = math.sqrt(2.0)


class SingularityError(ValueError):
    """The requested Green's function is evaluated on its singular locus."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class TailBudgetError(RuntimeError):
    """The lattice-sum tail cannot be pushed below the requested budget."""


# ---------------------------------------------------------------------------
# kernels


def g_s_truncated(s, z1, z2, gammas: Iterable[tuple[int, int, int, int]],
                  ctx: PrecisionContext):
    """Sum of g_s(z1, gamma z2) over a FIXED list of group elements, in mpf.

    Each term is an exact Laplacian eigenfunction of z1 with eigenvalue
    s(1-s), hence so is this truncated sum; that is what makes it the right
    object for finite-difference eigenvalue checks.
    """
    with ctx.workprec():
        w1 = z1.mpc(mp) if isinstance(z1, QuadForm) else mp.mpc(z1)
        w2 = z2.mpc(mp) if isinstance(z2, QuadForm) else mp.mpc(z2)
        total = mp.mpf(0)
        for a, b, c, d in gammas:
            w = (a * w2 + b) / (c * w2 + d)
            t = cosh_dist(w1, w)
            if t <= 1 + 1e-14:
                raise SingularityError(
                    "orbit point coincides with z1", where=(a, b, c, d))
            total += -2 * legendre_Q(s, t, ctx)
        return total


def g_s(s, z1, z2, ctx: PrecisionContext):
    """g_s(z1, z2) = -2 Q_{s-1}(cosh d(z1, z2)); negative off the diagonal.
    The one-term g_s_truncated."""
    return g_s_truncated(s, z1, z2, ((1, 0, 0, 1),), ctx)


# ---------------------------------------------------------------------------
# Gamma-averaged sums


@dataclass(frozen=True)
class GreensValue:
    """A lattice sum together with its error bound.

    The exact sum lies in [value - tail_bound, value]: value is the
    two-sided estimate plus half the bound (see _lattice_sums).  For one
    walk, cosh_cutoff is T = cosh(j log 2) at the accepted row level j, so
    every orbit point within cosh distance T of the centre lies in a summed
    row, and terms counts the summed rows; over several walks they are the
    largest cutoff and the summed count (inf and the coset count for the
    modular-polynomial G_1^m).
    """

    value: float
    tail_bound: float
    cosh_cutoff: float
    terms: int

    def __float__(self):
        return float(self.value)


def _q_decay_const(s: int, t_cut: float) -> float:
    """q with Q_{s-1}(t) <= q t^(-s) for t >= t_cut, with a factor 2 to spare.

    t^s Q_{s-1}(t) = c F(1/t^2), F a hypergeometric series with positive
    coefficients and F(0) = 1, so it falls in t towards its limit c; q is
    twice its value at t_cut.
    """
    return 2.0 * t_cut ** s * _q_int(s - 1, float(t_cut))


def gamma_orbit(z1, z2, cosh_cut: float) -> tuple[tuple[int, int, int, int], ...]:
    """Group elements gamma with cosh d(z1, gamma z2) <= cosh_cut."""
    out = gamma_translates(as_complex(z1), as_complex(z2), cosh_cut)
    return tuple(g for g, _ in out)


# rows less than this below the centre are summed in n: their modes fall
# only like e^(-2 pi k (y1 - y)), by less than e^(-pi/10) ~ 0.73 a mode.
# Per-row cost sets it: timing both routes on the 633 rows within 1/4 of y1
# of a chain-grid pass, 1/20 comes within 3% of the faster route per row,
# and 1/4 is the slowest of the gaps from 1/4 down to 0.03
_ROW_GAP = 0.05
# the most rows a walk may enumerate; about 3/(pi Y) rows reach height Y
_MAX_ROWS = 1_000_000
# relative error allowed per float term (Bessel products, Eisenstein terms,
# powers, Q values): 64 times the worst the Bessel kernels show against
# mpmath (27 units of 2^-53)
_TERM_ROUNDING = 2.0 ** -42
# the most modes a row may add in its running sum: 27 + K units of 2^-53
# stay within _TERM_ROUNDING while 27 + K <= 2^11
_MAX_MODES = 2 ** 11 - 27


@lru_cache(maxsize=1024)
def _rows_from(z2: complex, e: int) -> tuple[list[float], list[tuple[float, float]]]:
    """(-yw per row, rows): the (yw, wx0) of every bottom row of z2
    (modular._bottom_rows) at height yw >= 2^e, highest first."""
    rows = sorted(((yw, wx0) for _, _, _, wx0, yw in _bottom_rows(z2, math.ldexp(1.0, e))),
                  reverse=True)
    return [-yw for yw, _ in rows], rows


def _orbit_rows(z2: complex, floor: float) -> list[tuple[float, float]]:
    """(yw, wx0) of every row of z2 at height yw >= floor, highest first: a
    prefix of _rows_from at the power of two 2^e <= floor, refused before it
    is enumerated when its ~3/(pi 2^e) rows pass _MAX_ROWS (TailBudgetError)."""
    e = math.frexp(floor)[1] - 1
    reach = 3.0 / (math.pi * math.ldexp(1.0, e))
    if reach > _MAX_ROWS:
        raise TailBudgetError(
            f"the tail budget needs the rows down to height {floor:.3g} "
            f"(~{reach:.3g} rows); loosen tail_target")
    keys, rows = _rows_from(z2, e)
    return rows[:bisect_right(keys, -floor)]


@lru_cache(maxsize=None)
def _bessel_poly(n: int) -> tuple[float, ...]:
    """(c_n, ..., c_0), c_j = (n + j)!/(j! (n - j)!): P = sum c_j u^j has
    e^x K_{n+1/2}(x) = sqrt(pi/(2x)) P(1/(2x))."""
    f = math.factorial
    return tuple(float(f(n + j) // (f(j) * f(n - j))) for j in range(n, -1, -1))


def _k_scaled(n: int, x: float) -> float:
    """sqrt(2x/pi) e^x K_{n+1/2}(x) = P(1/(2x)); it falls in x."""
    u = 0.5 / x
    p = 0.0
    for c in _bessel_poly(n):
        p = p * u + c
    return p


def _i_scaled(n: int, x: float) -> float:
    """sqrt(2 pi x) e^-x I_{n+1/2}(x) for x > 0.

    The closed form P(-u) - (-1)^n e^(-2x) P(u), u = 1/(2x), has terms of
    total size P(u) (1 + e^(-2x)); where that is over 2^6 times the result
    (small x), the power series 2^(n+2) (n+1)!/(2n+2)! x^(n+1) e^-x
    sum_m (x^2/4)^m/(m! (n+3/2)_m) runs instead, until a term is below 2^-56
    of the sum and the term ratio below 1/2.
    """
    u = 0.5 / x
    plus = minus = 0.0
    for c in _bessel_poly(n):
        plus = plus * u + c
        minus = c - minus * u
    damp = math.exp(-2.0 * x)
    value = minus - damp * plus if n % 2 == 0 else minus + damp * plus
    if value >= 2.0 ** -6 * plus * (1.0 + damp):
        return value
    q = 0.25 * x * x
    term = total = 1.0
    m = 0
    while not (term <= 2.0 ** -56 * total and q <= 0.5 * (m + 1) * (m + n + 1.5)):
        m += 1
        term *= q / (m * (m + n + 0.5))
        total += term
    f = math.factorial
    return 2.0 ** (n + 2) * f(n + 1) / f(2 * n + 2) * x ** (n + 1) * math.exp(-x) * total


@lru_cache(maxsize=1024)
def _k_column(n: int, y1: float) -> list[float]:
    """[0, _k_scaled(n, 2 pi y1), _k_scaled(n, 4 pi y1), ...], memoised per
    centre height; _modes appends each next k as it needs it."""
    return [0.0]


@lru_cache(maxsize=8192)
def _i_column(n: int, y: float) -> list[float]:
    """[0, _i_scaled(n, 2 pi y), _i_scaled(n, 4 pi y), ...], memoised per row
    height and extended like _k_column.  A row's height is computed from its
    lower point alone (_rows_from), so every centre, k and budget reuses it."""
    return [0.0]


def _modes(n: int, y1: float, y: float, dx: float, budget: float, rel: float = 0.0):
    """(sum, size, tail) of one row's non-zero modes 2 sum_k F_k cos(2 pi k dx)
    at height y < y1, s = n + 1; size is sum_k 2 F_k.

    2 F_k = _i_scaled(n, a) _k_scaled(n, b) e^(a - b)/k, a = 2 pi k y and
    b = 2 pi k y1, so no factor overflows.  For b > a,
    I_nu(b)/I_nu(a) <= (b/a)^nu e^(b-a), as I_nu'/I_nu = I_(nu+1)/I_nu + nu/x
    <= 1 + nu/x, and K_nu(b)/K_nu(a) <= sqrt(a/b) e^(a-b), as _k_scaled
    falls; so F_(k+1)/F_k <= rho = (1 + 1/K)^n e^(-2 pi (y1 - y)) for every
    k >= K, and the series stops at the first K with rho < 1 and the tail
    bound 2 F_K rho/(1 - rho) at most budget or rel times the size.

    The K terms are added in a running float sum.  Each Bessel product may
    carry 27 units of 2^-53, so the row's error is at most (27 + K) 2^-53
    times its size, within _TERM_ROUNDING while 27 + K <= 2^11; a row that
    needs more than _MAX_MODES modes raises TailBudgetError.
    """
    icol, kcol = _i_column(n, y), _k_column(n, y1)
    step = math.exp(-math.tau * (y1 - y))
    phase = math.tau * (dx - round(dx))
    damp = 1.0
    total = size = 0.0
    k = 0
    while True:
        k += 1
        damp *= step
        if len(icol) == k:
            icol.append(_i_scaled(n, math.tau * k * y))
        if len(kcol) == k:
            kcol.append(_k_scaled(n, math.tau * k * y1))
        f = icol[k] * kcol[k] * damp / k
        total += f * math.cos(k * phase)
        size += f
        rho = (1.0 + 1.0 / k) ** n * step
        if rho < 1.0 and f * rho <= max(budget, rel * size) * (1.0 - rho):
            return total, size, f * rho / (1.0 - rho)
        if k == _MAX_MODES:
            raise TailBudgetError(
                f"a row at height {y:.6g} under y1 = {y1:.6g} needs more than "
                f"{_MAX_MODES} modes at s = {n + 1}; loosen tail_target")


@lru_cache(maxsize=4096)
def _omitted_rate(n: int, y1: float, level: int) -> float:
    """M_s(Y), Y = y1 2^-level, s = n + 1: the non-zero modes of a row at any
    height y_r <= Y are at most M_s(Y) y_r^s in size.

    F_k(y1, y_r)/y_r^s is 2 pi sqrt(y1) K_nu(2 pi k y1) (2 pi k)^nu times
    I_nu(x) x^-nu at x = 2 pi k y_r, nu = s - 1/2, and I_nu(x) x^-nu rises
    with x (a series with positive coefficients); so M_s(Y) is the size plus
    tail of the modes at height Y over Y^s.
    """
    y = math.ldexp(y1, -level)
    _, size, tail = _modes(n, y1, y, 0.0, 0.0, 2.0 ** -6)
    return (size + tail) / y ** (n + 1)


def _row_direct(s: int, y1: float, y: float, dx: float, budget: float):
    """(sum, tail) of Q_{s-1}(cosh d(z1, w + n)) over one row summed in n,
    w = x + i y, dx = x1 - x.

    The n with |n - dx| < N are summed.  Past them, each side's n lie at
    distances N + i, where t > (N + i)^2/(2 y1 y) and t >= t0 = 1 + N^2/(2 y1 y);
    t^s Q_(s-1)(t) falls in t, so the terms are at most
    q (2 y1 y)^s (N + i)^(-2s), q = _q_decay_const(s, t0), and both sides
    at most 2 q (2 y1 y)^s (N^-2s + N^(1-2s)/(2s-1)) < 2 q (2 y1 y)^s
    N^(1-2s) 2s/(2s-1).  From N = 2, while the first bound exceeds budget,
    N moves to where the last one meets it with the present q, which only
    falls as N grows.  Raises SingularityError when an orbit point meets z1.
    """
    den = 2.0 * y1 * y
    dy2 = (y1 - y) ** 2
    dx -= round(dx)
    reach = 2
    while True:
        scale = 2.0 * _q_decay_const(s, 1.0 + reach * reach / den) * den ** s
        tail = scale * (reach ** (-2 * s) + reach ** (1 - 2 * s) / (2 * s - 1))
        if tail <= budget:
            break
        need = (scale * 2 * s / ((2 * s - 1) * budget)) ** (1.0 / (2 * s - 1))
        reach = max(reach + 1, math.ceil(need))
    ts = [1.0 + ((dx - j) ** 2 + dy2) / den
          for j in range(math.floor(dx - reach) + 1, math.ceil(dx + reach))]
    if min(ts) <= 1 + 1e-12:
        raise SingularityError("z1 and z2 are equivalent under the group")
    return math.fsum(_q_int(s - 1, t) for t in ts), tail


@lru_cache(maxsize=None)
def _eisenstein_coeffs(s: int) -> tuple:
    """(phi, 2/xi(2s), zeta(2s-1), a) for E(z, s), xi(t) = pi^(-t/2)
    Gamma(t/2) zeta(t) and phi = xi(2s-1)/xi(2s), with the list a of
    a_m = 2/xi(2s) m^(s-1) sigma_(1-2s)(m) = 2/xi(2s) sigma_(2s-1)(m)/m^s
    (a[0] unused) that _eisenstein extends.  Built in mpmath at 80 bits at
    the first use of s.
    """
    with mp.workprec(80):
        def xi(t):
            return mp.pi ** (-mp.mpf(t) / 2) * mp.gamma(mp.mpf(t) / 2) * mp.zeta(t)
        return (float(xi(2 * s - 1) / xi(2 * s)), float(2 / xi(2 * s)),
                float(mp.zeta(2 * s - 1)), [0.0])


@lru_cache(maxsize=1024)
def _eisenstein(s: int, z: complex):
    """(E(z, s), size, tail) at a reduced z = x + i y, integer s >= 2.

    E(z, s) = sum over the rows of Im(gamma z)^s = y^s + phi y^(1-s)
    + sum_(m>=1) a_m _k_scaled(s - 1, 2 pi m y) e^(-2 pi m y) cos(2 pi m x),
    which is the usual 4/xi(2s) sqrt(y) m^(s-1/2) sigma_(1-2s)(m)
    K_(s-1/2)(2 pi m y) series; size sums the terms' absolute values.  As
    sigma_(1-2s) <= zeta(2s-1) and _k_scaled falls, the terms past M add up
    to at most 2/xi(2s) zeta(2s-1) _k_scaled(s - 1, 2 pi (M+1) y)
    (M+1)^(s-1) e^(-2 pi (M+1) y)/(1 - rho), rho = (1 + 1/(M+1))^(s-1)
    e^(-2 pi y); the series stops at the first M with rho < 1 where that
    is below 2^-56 size.
    """
    phi, two_over_xi, zeta_odd, coeffs = _eisenstein_coeffs(s)
    n = s - 1
    x, y = z.real, z.imag
    step = math.exp(-math.tau * y)
    terms = [y ** s, phi * y ** (1 - s)]
    size = terms[0] + terms[1]
    damp = 1.0
    m = 0
    while True:
        m += 1
        if len(coeffs) == m:
            coeffs.append(two_over_xi * (_divisor_power_sum(m, 2 * s - 1) / m ** s))
        damp *= step
        a = coeffs[m] * _k_scaled(n, math.tau * m * y) * damp
        terms.append(a * math.cos(math.tau * m * x))
        size += a
        rho = (1.0 + 1.0 / (m + 1)) ** n * step
        if rho < 1.0:
            tail = (two_over_xi * zeta_odd * (m + 1) ** n * damp * step
                    * _k_scaled(n, math.tau * (m + 1) * y) / (1.0 - rho))
            if tail <= 2.0 ** -56 * size:
                return math.fsum(terms), size, tail


def _lattice_sums(ss, c1: complex, c2: complex, target: float) -> list[GreensValue]:
    """Sums of g_s(c1, gamma c2) over the modular group for each integer
    s >= 2 in ss, by the row Fourier expansion (see the module docstring),
    each within target.

    target must be positive (ValueError otherwise).  The sums are taken at
    the reduced points, z1 = x1 + i y1 the higher one.  With S = -G_s/2 the
    orbit sum of Q_(s-1) and b = target/4 its allowed error:

    - the zero modes of all rows are 2 pi/(2s-1) y1^(1-s) E(z2, s); a budget
      under which _TERM_ROUNDING times their size passes b/8 is refused
      (TailBudgetError) before enumerating;
    - the rows at height y >= Y = y1 2^-level are summed: within 1/20 of y1
      (_ROW_GAP) in n (_row_direct, less their zero mode), the others by
      their modes (_modes), each to a tail of b/(8 rows);
    - the rows below Y are bounded by _omitted_rate times the rest
      E(z2, s) - sum_(y >= Y) y^s plus its error.  The levels are scanned
      up from 1 and the first whose bound meets 3b/4 is taken: the bound
      falls as the level deepens, so that is the coarsest level meeting it.
      Its rows are enumerated to the power of two 2^e <= Y (_orbit_rows),
      refused before that where the ~3/(pi 2^e) rows pass _MAX_ROWS;
    - the error is that bound, the tails and _TERM_ROUNDING times the size
      of every term; a total above b is refused (TailBudgetError).

    G_s is reported as -2 S + 2 error with tail bound 4 error <= target, so
    the exact sum lies in [value - tail_bound, value].  Every s reads the
    lower point's shared rows (_orbit_rows; ascending s lets s = 3 enumerate
    for 5 and 7) only at and above the levels it checks, and sums with
    fsum, so no result depends on which s or which walk enumerated.  The
    result is aligned with ss.
    """
    if not target > 0:
        raise ValueError(f"tail target must be positive, got {target}")
    centre, other = fd_reduce(c1)[0], fd_reduce(c2)[0]
    if other.imag > centre.imag:
        centre, other = other, centre
    x1, y1 = centre.real, centre.imag
    out = {}
    for s in sorted(set(ss)):
        n, b = s - 1, target / 4.0
        eis, eis_size, eis_tail = _eisenstein(s, other)
        scale = math.tau / (2 * s - 1) * y1 ** (1 - s)
        if _TERM_ROUNDING * scale * eis_size > b / 8.0:
            raise TailBudgetError(
                f"tail target {target:g} is below the rounding floor "
                f"~{32.0 * _TERM_ROUNDING * scale * eis_size:.3g} at s = {s}; "
                "loosen tail_target")

        allowed = 0.75 * b
        level = 0
        while True:
            level += 1
            floor = math.ldexp(y1, -level)
            rows = _orbit_rows(other, floor)
            powers = [y ** s for y, _ in rows]
            power_sum = math.fsum(powers)
            rest_err = eis_tail + _TERM_ROUNDING * (eis_size + power_sum)
            rest = max(eis - power_sum, 0.0) + rest_err
            omitted = _omitted_rate(n, y1, level) * rest
            if omitted <= allowed:
                break
        share = b / (8.0 * max(len(rows), 1))
        parts, sizes = [scale * eis], [scale * eis_size]
        errors = [omitted, scale * eis_tail]
        for (y, wx0), power in zip(rows, powers):
            dx = x1 - wx0
            if y1 - y < _ROW_GAP:
                direct, tail = _row_direct(s, y1, y, dx, share)
                parts += [direct, -scale * power]
                sizes += [direct, scale * power]
            else:
                modes, size, tail = _modes(n, y1, y, dx, share)
                parts.append(modes)
                sizes.append(size)
            errors.append(tail)
        error = math.fsum(errors) + _TERM_ROUNDING * math.fsum(sizes)
        if error > b:
            raise TailBudgetError(
                f"tail target {target:g} is below the rounding allowance "
                f"~{4.0 * error:.3g} at s = {s}; loosen tail_target")
        out[s] = GreensValue(
            value=-2.0 * math.fsum(parts) + 2.0 * error, tail_bound=4.0 * error,
            cosh_cutoff=0.5 * (math.ldexp(1.0, level) + math.ldexp(1.0, -level)),
            terms=len(rows))
    return [out[s] for s in ss]


def G_s_sum(s, z1, z2, tail_target: float) -> GreensValue:
    """G_s(z1, z2) = sum over the full modular group of g_s(z1, gamma z2).

    Requires an integer s >= 2 (the sum diverges at s = 1); tail_target is
    the absolute tail budget, see _lattice_sums.
    """
    if not (float(s).is_integer() and s >= 2):
        raise ValueError(f"G_s_sum requires an integer s >= 2, got {s}")
    return _lattice_sums((int(s),), as_complex(z1), as_complex(z2), float(tail_target))[0]


# default absolute tail budget for the k >= 3 averaged sums
DEFAULT_GK_TAIL = 1e-6


def G_k_m(k: int, m: int, z1, z2, ctx: PrecisionContext,
          tail_target: float | None = None) -> GreensValue:
    """Hecke-averaged Green's function: sum of G_k(z1, coset z2) over cosets.

    k = 1 is 2 log |phi_m(j(z1), j(z2))| by modpoly_eval, the exact high
    precision path (at m = 1, G_1 = 2 log |j(z1) - j(z2)|).  For k in
    {3, 5, 7} each Hecke coset contributes one lattice sum (_lattice_sums)
    at an equal share of the tail budget, summed in double precision, which
    is ample for inequality checks.
    """
    if k not in (1, 3, 5, 7):
        raise ValueError(f"k must be odd in (1, 3, 5, 7), got {k}")
    cosets = hecke_cosets(m)
    if k == 1:
        v = modpoly_eval(m, z1, z2, ctx)
        if v.is_zero:
            raise SingularityError(
                "modular polynomial vanishes; G_1^m is singular",
                where=v.zero_cosets[0])
        return GreensValue(value=2 * v.log_abs(), tail_bound=2.0 * float(v.rel_error),
                           cosh_cutoff=math.inf, terms=len(cosets))
    share = _coset_share(tail_target, m)
    z1c = as_complex(z1)
    return _weighted_total(
        [(1, _lattice_sums((k,), z1c, as_complex(coset_apply(coset, z2)), share))
         for coset in cosets])[0]


def _coset_share(tail_target, m: int) -> float:
    """Each Hecke coset's equal share of the tail budget."""
    target = DEFAULT_GK_TAIL if tail_target is None else float(tail_target)
    return target / len(hecke_cosets(m))


def _weighted_total(walks) -> list[GreensValue]:
    """Sum of weight * part per s over walks, a list of (weight, parts)."""
    weights = [w for w, _ in walks]
    out = []
    for parts in zip(*(parts for _, parts in walks)):
        out.append(GreensValue(
            value=math.fsum(w * p.value for w, p in zip(weights, parts)),
            tail_bound=math.fsum(w * p.tail_bound for w, p in zip(weights, parts)),
            cosh_cutoff=max(p.cosh_cutoff for p in parts),
            terms=sum(p.terms for p in parts)))
    return out


def class_pair_key(f1: QuadForm, f2: QuadForm) -> tuple[QuadForm, QuadForm]:
    """The least of the conjugate_key of (f1, f2) and of (f2, f1).

    f1 and f2 are reduced forms.  G_s(z1, z2) depends only on the two
    classes, is symmetric, and is unchanged by z -> -conj z on both points
    (an isometry normalising the group), which sends each class to its
    inverse; so every pair with one key has one G_s.
    """
    return min(conjugate_key(f1, f2), conjugate_key(f2, f1))


def class_pair_weights(pairs, m: int) -> dict[tuple[QuadForm, QuadForm], int]:
    """Summed multiplicity per class_pair_key over every (pair, coset) walk.

    pairs carry reduced forms z1, z2 (CM points) and a multiplicity
    (cmcycles.CyclePair, one per conjugate orbit of a cycle); the coset
    images of z2 are exact too (hecke_images), so the keys are exact.
    """
    weights: dict[tuple[QuadForm, QuadForm], int] = {}
    for pair in pairs:
        for w in hecke_images(pair.z2, m):
            key = class_pair_key(pair.z1, w)
            weights[key] = weights.get(key, 0) + pair.multiplicity
    return weights


def G_ks_m_cycle(ks, m: int, pairs, tail_target: float | None = None) -> list[GreensValue]:
    """Sum over pairs of multiplicity * G_k^m(z1, z2), for each k in ks.

    One _lattice_sums walk per class_pair_weights key, in key order, at the
    per-coset share of G_k_m and weighted by the key's summed multiplicity,
    so the tail is at most the summed multiplicity times tail_target, as
    over separate pairs.  Values and tails are weighted sums, aligned with ks.
    """
    if any(k not in (3, 5, 7) for k in ks):
        raise ValueError(f"k must be odd in (3, 5, 7), got {tuple(ks)}")
    share = _coset_share(tail_target, m)
    return _weighted_total(
        [(w, _lattice_sums(ks, f1.approx(), f2.approx(), share))
         for (f1, f2), w in sorted(class_pair_weights(pairs, m).items())])


# ---------------------------------------------------------------------------
# distance to the Hecke graph


def graph_distance(m: int, z1, z2) -> float:
    """Riemannian distance from (z1, z2) to the degree-m Hecke graph in Y(1)^2.

    The squared distance from (z1, z2) to a point (z, gamma z) of the graph
    is d(z1, z)^2 + d(z2, gamma z)^2; its minimum over z sits at the geodesic
    midpoint and equals d(z1, gamma' z2)^2 / 2, so the graph distance is the
    orbit distance divided by sqrt(2), minimized over the Hecke cosets.
    """
    return min(y1_distance(z1, coset_apply(coset, z2))
               for coset in hecke_cosets(m)) / _SQRT2


def tm_count(cycle, m: int, epsilon: float) -> int:
    """Count cycle points (with multiplicity) within epsilon of the graph.

    cycle is any object with .pairs, an iterable of entries carrying z1, z2
    and multiplicity attributes (cmcycles.CMCycle: one per conjugate orbit).
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return sum(entry.multiplicity for entry in cycle.pairs
               if graph_distance(m, entry.z1, entry.z2) < epsilon)
