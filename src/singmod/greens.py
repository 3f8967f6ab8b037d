"""Automorphic Green's functions on the modular curve and Hecke graph geometry.

The building block is the point-pair kernel g_s(z1, z2) = -2 Q_{s-1}(cosh d)
with d the hyperbolic distance; G_s averages it over the modular group, G_k^m
additionally over the determinant-m Hecke cosets, and G_f takes the linear
combination dictated by the principal part of a weakly holomorphic form.

Lattice sums, for G_s and for each Hecke coset of G_k^m, run through one
cutoff loop, _lattice_sums, over the cosh distances of cosh_translates,
walked around the higher reduced point, truncated at a cutoff with an
explicit tail bound: the orbit-point count up to cosh-distance T grows
linearly in T, the kernel decays like t^(-s), so the tail is O(T^(1-s)).
The count slope is calibrated on the enumerated terms and doubled for
safety; the cutoff-doubling test in the suite checks the bound is honest.
Because the decay is only polynomial, very small tail budgets are refused
explicitly (TailBudgetError) instead of looping forever.  The orbit is
enumerated once per (pair, coset) and shared by every s asked for at that
coset (G_ks_m evaluates k = 3, 5, 7 together); each s keeps its own cutoff
loop and counts its terms in the one sorted list.  At integer s the kernel
and the tail constant are numerics._q_int, the one integer-order Legendre-Q
route; mpmath's legenq serves non-integer s only.

For Laplacian eigenfunction checks use gamma_orbit + g_s_truncated: every
single gamma-term is an exact eigenfunction in z1, so a truncated sum over a
FIXED set of group elements is one too, and finite differences see no
truncation noise.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping

import mpmath as mp

from .numerics import PrecisionContext, _q_int
from .quadforms import CMPoint
from .modular import (
    cosh_dist,
    cosh_translates,
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


def _q_order(s) -> int | None:
    """The integer n with s = n + 1 when s is (numerically) an integer."""
    n = int(round(float(s))) - 1
    if n >= 0 and abs(float(s) - (n + 1)) < 2.0 ** (-40):
        return n
    return None


def _q_raw(s_m, t_m, n: int | None):
    # precision must already be set by the caller
    if n is not None:
        return _q_int(n, t_m)
    return mp.legenq(s_m - 1, 0, t_m, type=3).real


def q_kernel(s, t, ctx: PrecisionContext):
    """Q_{s-1}(t) at the context precision; the recurrence at integer s."""
    if not t > 1:
        raise SingularityError("Q_{s-1} blows up at t = 1", where=t)
    with ctx.workprec():
        return _q_raw(mp.mpf(s), mp.mpf(t), _q_order(s))


def g_s(s, z1, z2, ctx: PrecisionContext | None = None):
    """g_s(z1, z2) = -2 Q_{s-1}(cosh d(z1, z2)); negative off the diagonal."""
    ctx = ctx or PrecisionContext()
    if isinstance(z1, CMPoint):
        z1 = z1.mpc(mp)
    if isinstance(z2, CMPoint):
        z2 = z2.mpc(mp)
    t = cosh_dist(z1, z2)
    if t <= 1 + 1e-14:
        raise SingularityError("g_s is singular at coincident points", where=(z1, z2))
    return -2 * q_kernel(s, t, ctx)


# ---------------------------------------------------------------------------
# Gamma-averaged sums


@dataclass(frozen=True)
class GreensValue:
    """A truncated lattice sum together with its certified tail bound.

    The exact sum lies in [value - tail_bound, value] since every omitted
    term is negative.
    """

    value: float
    tail_bound: float
    cosh_cutoff: float
    terms: int

    def __float__(self):
        return float(self.value)


def _q_decay_const(s: float, t_cut: float) -> float:
    """q with Q_{s-1}(t) <= q * t^(-s) for t >= t_cut (asymptotically sharp)."""
    # limit of t^s Q_{s-1}(t) is sqrt(pi) Gamma(s) / (Gamma(s+1/2) 2^s)
    c_inf = math.sqrt(math.pi) * math.gamma(s) / (math.gamma(s + 0.5) * 2.0 ** s)
    n = _q_order(s)
    if n is not None:
        q_cut = _q_int(n, float(t_cut))
    else:
        with mp.workprec(53):
            q_cut = float(mp.legenq(s - 1, 0, mp.mpf(t_cut), type=3).real)
    return 2.0 * max(c_inf, q_cut * t_cut ** s)


def _as_complex(z) -> complex:
    if isinstance(z, CMPoint):
        return z.approx()
    return complex(z)


def gamma_orbit(z1, z2, cosh_cut: float) -> tuple[tuple[int, int, int, int], ...]:
    """Group elements gamma with cosh d(z1, gamma z2) <= cosh_cut."""
    out = gamma_translates(_as_complex(z1), _as_complex(z2), cosh_cut)
    return tuple(g for g, _ in out)


def g_s_truncated(s, z1, z2, gammas: Iterable[tuple[int, int, int, int]],
                  ctx: PrecisionContext):
    """Sum of g_s(z1, gamma z2) over a FIXED list of group elements, in mpf.

    Each term is an exact Laplacian eigenfunction of z1 with eigenvalue
    s(1-s), hence so is this truncated sum; that is what makes it the right
    object for finite-difference eigenvalue checks.
    """
    with ctx.workprec():
        w1 = z1.mpc(mp) if isinstance(z1, CMPoint) else mp.mpc(z1)
        w2 = z2.mpc(mp) if isinstance(z2, CMPoint) else mp.mpc(z2)
        s_m = mp.mpf(s)
        n = _q_order(s)
        total = mp.mpf(0)
        for a, b, c, d in gammas:
            w = (a * w2 + b) / (c * w2 + d)
            t = cosh_dist(w1, w)
            if t <= 1 + 1e-14:
                raise SingularityError(
                    "orbit point coincides with z1", where=(a, b, c, d))
            total += -2 * _q_raw(s_m, t, n)
        return total


def _tail_bound(s: float, t_cut: float, n_terms: int) -> float:
    """Bound on the omitted |g_s| mass beyond cosh-distance t_cut.

    Orbit points up to cosh-distance T number about C*T; the slope C is
    calibrated from the enumerated count and doubled.  Each omitted term is
    at most 2 q t^(-s), so the tail integrates to 2 q C t_cut^(1-s)/(s-1).
    """
    slope = 2.0 * (n_terms + 16) / t_cut
    q = _q_decay_const(s, t_cut)
    return 2.0 * q * slope * t_cut ** (1.0 - s) / (s - 1.0)


_MAX_LATTICE_TERMS = 3_000_000


def _lattice_sums(ss, c1: complex, c2: complex, target: float) -> list[GreensValue]:
    """Sums of g_s(c1, gamma c2) over the modular group for each s in ss.

    Each s has its own cutoff loop: the cosh cutoff grows until the certified
    tail drops below target; since the decay is only T^(1-s), unreachable
    budgets raise TailBudgetError instead of spinning.  All s share one
    orbit enumeration, kept as a sorted list of cosh distances; a loop counts
    its terms by bisection and enumerates again only when it needs a cutoff
    above the enumerated one.  Processing s in ascending order lets the
    slowly decaying s = 3 set the enumeration that s = 5, 7 reuse.  Terms
    are summed in double precision with fsum; rounding noise is orders of
    magnitude below the certified tail for every reachable target.  The
    result is aligned with ss.  G_s is Gamma-invariant in each variable and
    symmetric, so cosh_translates walks around the higher of the two reduced
    points, where its row count (~ T / Im of the centre) is least.
    """
    t_start = max(8.0, 2.0 * cosh_dist(c1, c2))
    centre, other = fd_reduce(c1)[0], fd_reduce(c2)[0]
    if other.imag > centre.imag:
        centre, other = other, centre
    t_enum = 0.0
    chs: list[float] = []
    out = {}
    for s in sorted(set(ss)):
        t_cut = t_start
        while True:
            if t_cut > t_enum:
                chs = cosh_translates(centre, other, t_cut)
                chs.sort()
                t_enum = t_cut
            n = bisect_right(chs, t_cut)
            tail = _tail_bound(s, t_cut, n)
            if tail <= target:
                break
            # predict the cutoff needed and refuse hopeless budgets early
            needed = t_cut * (tail / target) ** (1.0 / (s - 1.0))
            if (n + 16) * needed / t_cut > _MAX_LATTICE_TERMS:
                raise TailBudgetError(
                    f"tail target {target:g} needs cosh cutoff ~{needed:.3g} "
                    f"(~{int((n + 16) * needed / t_cut)} terms) at s = {s}; "
                    "loosen tail_target")
            t_cut = min(needed * 1.5, t_cut * 16.0)
        if n and chs[0] <= 1 + 1e-12:
            raise SingularityError("z1 and z2 are equivalent under the group",
                                   where=(c1, c2))
        kept = chs[:n]
        n_ord = _q_order(s)
        if n_ord is not None:
            value = math.fsum([-2.0 * _q_int(n_ord, ch) for ch in kept])
        else:
            with mp.workprec(53):
                s_m = mp.mpf(s)
                value = math.fsum(
                    -2.0 * float(mp.legenq(s_m - 1, 0, mp.mpf(ch), type=3).real)
                    for ch in kept)
        out[s] = GreensValue(value=value, tail_bound=tail, cosh_cutoff=t_cut, terms=n)
    return [out[s] for s in ss]


def G_s_sum(s, z1, z2, ctx: PrecisionContext, tail_target: float | None = None) -> GreensValue:
    """G_s(z1, z2) = sum over the full modular group of g_s(z1, gamma z2).

    Requires s > 1 strictly (the sum diverges at s = 1).  The tail budget
    defaults to the context series_tail_bound; see _lattice_sums.
    """
    s = float(s)
    if not s > 1:
        raise ValueError("G_s_sum requires s > 1; the series diverges at s = 1")
    target = ctx.series_tail_bound if tail_target is None else float(tail_target)
    return _lattice_sums((s,), _as_complex(z1), _as_complex(z2), target)[0]


def G_1(z1, z2, ctx: PrecisionContext):
    """G_1(z1, z2) = 2 log |j(z1) - j(z2)|; singular at equal j-values."""
    v = modpoly_eval(1, z1, z2, ctx)
    if v.is_zero:
        raise SingularityError("j(z1) = j(z2); G_1 is singular", where=(z1, z2))
    return 2 * v.log_abs()


# default absolute tail budget for the k >= 3 averaged sums; the T^(1-k)
# decay makes the context's series budget unreachable for k = 3
DEFAULT_GK_TAIL = 1e-6


def G_k_m(k: int, m: int, z1, z2, ctx: PrecisionContext,
          tail_target: float | None = None) -> GreensValue:
    """Hecke-averaged Green's function: sum of G_k(z1, coset z2) over cosets.

    k = 1 routes through the modular-polynomial logarithm (exact high
    precision path); k in {3, 5, 7} is G_ks_m for that one k.
    """
    if k not in (1, 3, 5, 7):
        raise ValueError(f"k must be odd in (1, 3, 5, 7), got {k}")
    if k != 1:
        return G_ks_m((k,), m, z1, z2, ctx, tail_target=tail_target)[0]
    v = modpoly_eval(m, z1, z2, ctx)
    if v.is_zero:
        raise SingularityError(
            "modular polynomial vanishes; G_1^m is singular",
            where=v.zero_cosets[0])
    return GreensValue(value=2 * v.log_abs(), tail_bound=2.0 * float(v.rel_error),
                       cosh_cutoff=math.inf, terms=len(hecke_cosets(m)))


def G_ks_m(ks, m: int, z1, z2, ctx: PrecisionContext,
           tail_target: float | None = None) -> list[GreensValue]:
    """G_k^m(z1, z2) for every k in ks (each in {3, 5, 7}), aligned with ks.

    Each Hecke coset contributes one lattice sum per k, all from one orbit
    enumeration (_lattice_sums), summed in double precision, which is ample
    for inequality checks.  Every coset gets an equal share of the tail
    budget.
    """
    if any(k not in (3, 5, 7) for k in ks):
        raise ValueError(f"k must be odd in (3, 5, 7), got {tuple(ks)}")
    cosets = hecke_cosets(m)
    target = DEFAULT_GK_TAIL if tail_target is None else float(tail_target)
    ss = [float(k) for k in ks]
    z1c = _as_complex(z1)
    share = target / len(cosets)
    per_coset = [_lattice_sums(ss, z1c, _as_complex(coset_apply(coset, z2)), share)
                 for coset in cosets.reps]
    out = []
    for parts in zip(*per_coset):
        value = tail = 0.0
        for part in parts:
            value += part.value
            tail += part.tail_bound
        out.append(GreensValue(value=value, tail_bound=tail,
                               cosh_cutoff=max(p.cosh_cutoff for p in parts),
                               terms=sum(p.terms for p in parts)))
    return out


# ---------------------------------------------------------------------------
# principal parts


@dataclass(frozen=True)
class PrincipalPart:
    """Principal part sum of c(m) q^(-m) of a weight 2-2k input form."""

    k: int
    coefficients: Mapping[int, int]

    def __post_init__(self):
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError("k must be an odd positive integer")
        if any(m < 1 for m in self.coefficients):
            raise ValueError("principal part indices must be positive")
        if not any(self.coefficients.values()):
            raise ValueError("principal part must have a nonzero coefficient")


def G_f(f: PrincipalPart, z1, z2, ctx: PrecisionContext,
        tail_target: float | None = None):
    """sum over m of c(m) m^(k-1) G_k^m(z1, z2)."""
    total = 0
    for m in sorted(f.coefficients):
        c = f.coefficients[m]
        if not c:
            continue
        part = G_k_m(f.k, m, z1, z2, ctx, tail_target=tail_target)
        total += c * m ** (f.k - 1) * part.value
    return total


# ---------------------------------------------------------------------------
# distance to the Hecke graph


def graph_distance(m: int, z1, z2) -> float:
    """Riemannian distance from (z1, z2) to the degree-m Hecke graph in Y(1)^2.

    The squared distance from (z1, z2) to a point (z, gamma z) of the graph
    is d(z1, z)^2 + d(z2, gamma z)^2; its minimum over z sits at the geodesic
    midpoint and equals d(z1, gamma' z2)^2 / 2, so the graph distance is the
    orbit distance divided by sqrt(2), minimized over the Hecke cosets.
    """
    best = math.inf
    for coset in hecke_cosets(m).reps:
        w = coset_apply(coset, z2)
        dist = y1_distance(z1, w)
        if dist < best:
            best = dist
    return best / _SQRT2


@dataclass(frozen=True)
class GraphProximity:
    """Per-pair distances of a cycle to the degree-m Hecke graph."""

    m: int
    epsilon: float
    distances: tuple[float, ...]
    count: int


def tm_count(cycle, m: int, epsilon: float) -> GraphProximity:
    """Count cycle points (with multiplicity) within epsilon of the graph.

    cycle is any object with .pairs, an iterable of entries carrying z1, z2
    and multiplicity attributes (see cmcycles.CMCycle).
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    distances = []
    count = 0
    for entry in cycle.pairs:
        dist = graph_distance(m, entry.z1, entry.z2)
        distances.append(dist)
        if dist < epsilon:
            count += entry.multiplicity
    return GraphProximity(m=m, epsilon=float(epsilon),
                          distances=tuple(distances), count=count)
