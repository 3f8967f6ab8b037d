"""Automorphic Green's functions on the modular curve and Hecke graph geometry.

The building block is the point-pair kernel g_s(z1, z2) = -2 Q_{s-1}(cosh d)
with d the hyperbolic distance; G_s averages it over the modular group and
G_k^m additionally over the determinant-m Hecke cosets.

Lattice sums, for G_s and for each Hecke coset of G_k^m, run through one
cutoff loop, _lattice_sums, over the cosh distances of cosh_translates,
walked around the higher reduced point, truncated at a cutoff with a tail
bound: the orbit-point count up to cosh-distance T grows linearly in T, the
kernel decays like t^(-s), so the tail is O(T^(1-s)).  The count slope is
calibrated on the enumerated terms and doubled; the suite checks the bound
against sums with a far smaller budget, but it is not proven.  Each s has
one cutoff rule: predict the cutoff where the count about 6 (T - 1) (the
area 2 pi (T - 1) of the disc over the covolume pi/3 of the group) would
meet the budget, check the bound there with the real count, and on failure
predict again from twice the cutoff.  The start is predicted well enough
that one enumeration serves every s asked for (k = 3, 5, 7 together).
Every prediction refuses a budget whose count is too large
(TailBudgetError) before enumerating, and a budget that is not positive is
refused at once (ValueError).  Lattice sums take integer s >= 2 only; the
bounds use k = 3, 5, 7 (Gross-Kohnen-Zagier).  G_k_m is the one point-pair
entry for G_k^m: k = 1 is the modular-polynomial logarithm, and k = 3, 5, 7
one walk per Hecke coset.  A cycle's G_k^m (G_ks_m_cycle) walks once per
class-pair key (class_pair_key), every k from one enumeration.  The lattice
kernel and tail constant are numerics._q_int, the one integer-order
Legendre-Q route, batched by numerics._q_sum.  The point-pair kernel is
g_s_truncated, in mpf through numerics.legendre_Q; g_s is its one-term case.

For Laplacian eigenfunction checks use gamma_orbit + g_s_truncated: every
single gamma-term is an exact eigenfunction in z1, so a truncated sum over a
FIXED set of group elements is one too, and finite differences see no
truncation noise.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable

import mpmath as mp

from .numerics import PrecisionContext, _q_int, _q_sum, legendre_Q
from .quadforms import QuadForm, hecke_image, inverse, reduce_form
from .modular import (
    as_complex,
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
    """A truncated lattice sum together with its tail bound.

    Every omitted term is negative, so the exact sum lies in
    [value - tail_bound, value] whenever the bound holds; see _tail_bound
    for how far it is established.  cosh_cutoff is the cutoff the loop of
    _lattice_sums accepted, and terms the orbit points up to it (over
    several walks, the largest cutoff and the summed count; inf for the
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


def _tail_bound(s: int, t_cut: float, n_terms: int) -> float:
    """Bound on the omitted |g_s| mass beyond cosh-distance t_cut.

    Orbit points up to cosh-distance T number about C*T; the slope C is
    calibrated from the enumerated count and doubled.  Each omitted term is
    at most 2 q t^(-s), so the tail integrates to 2 q C t_cut^(1-s)/(s-1).
    The calibrated slope makes this a measured bound, not a proven one.
    """
    slope = 2.0 * (n_terms + 16) / t_cut
    q = _q_decay_const(s, t_cut)
    return 2.0 * q * slope * t_cut ** (1.0 - s) / (s - 1.0)


_MAX_LATTICE_TERMS = 3_000_000
# orbit points per unit of cosh distance: the hyperbolic disc of cosh radius T
# has area 2 pi (T - 1), and the modular group's covolume is pi/3; the counts
# of the chain-grid walks stay within 6% of it, and the predicted cutoff
# assumes this many times more, so that one enumeration almost always suffices
_ORBIT_DENSITY = 6.0
_COUNT_MARGIN = 1.1


def _predicted_cutoff(s: int, t_start: float, target: float) -> float:
    """The cutoff T >= t_start where _tail_bound with the orbit count
    _COUNT_MARGIN _ORBIT_DENSITY (T - 1) meets target: four rescalings
    T -> T (tail / target)^(1/(s-1)) from t_start, as the tail falls about
    like T^(1-s).

    The cutoff loop starts here and, when the real count fails the bound,
    calls it again from twice the failed cutoff.  Raises TailBudgetError
    when _ORBIT_DENSITY (T - 1) terms would exceed _MAX_LATTICE_TERMS, so a
    hopeless budget is refused before any enumeration.
    """
    t = t_start
    for _ in range(4):
        tail = _tail_bound(s, t, _COUNT_MARGIN * _ORBIT_DENSITY * (t - 1.0))
        t = max(t_start, t * (tail / target) ** (1.0 / (s - 1.0)))
    terms = _ORBIT_DENSITY * (t - 1.0) + 16
    if not terms <= _MAX_LATTICE_TERMS:
        raise TailBudgetError(
            f"tail target {target:g} needs cosh cutoff ~{t:.3g} "
            f"(~{terms:.3g} terms) at s = {s}; loosen tail_target")
    return t


def _lattice_sums(ss, c1: complex, c2: complex, target: float) -> list[GreensValue]:
    """Sums of g_s(c1, gamma c2) over the modular group for each integer
    s >= 2 in ss.

    target must be positive (ValueError otherwise; a NaN would never stop
    the cutoff loop).  Each s has one cutoff rule: its cutoff starts at
    _predicted_cutoff(s, t_start, target), and while _tail_bound with the
    real term count exceeds target it becomes _predicted_cutoff(s, 2 T,
    target), T the failed cutoff.  The cutoff at least doubles per step, so
    an unreachable budget meets the TailBudgetError of _predicted_cutoff,
    which is raised before enumerating.  All s share one orbit enumeration,
    kept as a sorted list of cosh distances; a loop counts its terms by
    bisection and enumerates again only when it needs a cutoff above the
    enumerated one, which the predicted start makes rare.  Processing s in
    ascending order lets the slowly decaying s = 3 set the enumeration that
    s = 5, 7 reuse.  The terms up to the accepted cutoff, which is the
    result's cosh_cutoff, are summed in double precision with fsum.  No
    step reads a distance beyond the loop's cutoff, so a result does not
    depend on which s enumerated.  The result is aligned with ss.  G_s is
    Gamma-invariant in each variable and symmetric, so cosh_translates
    walks around the higher of the two reduced points, where its row count
    (~ T / Im of the centre) is least.
    """
    if not target > 0:
        raise ValueError(f"tail target must be positive, got {target}")
    centre, other = fd_reduce(c1)[0], fd_reduce(c2)[0]
    if other.imag > centre.imag:
        centre, other = other, centre
    # from the reduced points, so the floor does not depend on representatives
    t_start = max(8.0, 2.0 * cosh_dist(centre, other))
    t_enum = 0.0
    chs: list[float] = []
    out = {}
    for s in sorted(set(ss)):
        t_cut = _predicted_cutoff(s, t_start, target)
        while True:
            if t_cut > t_enum:
                chs = cosh_translates(centre, other, t_cut)
                chs.sort()
                t_enum = t_cut
            n = bisect_right(chs, t_cut)
            tail = _tail_bound(s, t_cut, n)
            if tail <= target:
                break
            t_cut = _predicted_cutoff(s, 2.0 * t_cut, target)
        if n and chs[0] <= 1 + 1e-12:
            raise SingularityError("z1 and z2 are equivalent under the group",
                                   where=(c1, c2))
        value = -2.0 * _q_sum(s - 1, chs[:n])
        out[s] = GreensValue(value=value, tail_bound=tail, cosh_cutoff=t_cut, terms=n)
    return [out[s] for s in ss]


def G_s_sum(s, z1, z2, tail_target: float) -> GreensValue:
    """G_s(z1, z2) = sum over the full modular group of g_s(z1, gamma z2).

    Requires an integer s >= 2 (the sum diverges at s = 1); tail_target is
    the absolute tail budget, see _lattice_sums.
    """
    if not (float(s).is_integer() and s >= 2):
        raise ValueError(f"G_s_sum requires an integer s >= 2, got {s}")
    return _lattice_sums((int(s),), as_complex(z1), as_complex(z2), float(tail_target))[0]


# default absolute tail budget for the k >= 3 averaged sums; the T^(1-k)
# decay makes budgets much below it costly at k = 3
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
    """The least of (f1, f2), (f2, f1) and their images under b -> -b.

    f1 and f2 are reduced forms.  G_s(z1, z2) depends only on the two
    classes, is symmetric, and is unchanged by z -> -conj z on both points
    (an isometry normalising the group), which sends each class to its
    inverse; so every pair with one key has one G_s.
    """
    g1, g2 = inverse(f1), inverse(f2)
    return min((f1, f2), (f2, f1), (g1, g2), (g2, g1))


def class_pair_weights(pairs, m: int) -> dict[tuple[QuadForm, QuadForm], int]:
    """Summed multiplicity per class_pair_key over every (pair, coset) walk.

    pairs carry reduced forms z1, z2 (CM points) and a multiplicity
    (cmcycles.CyclePair); the coset image of z2 is exact too (hecke_image),
    so the keys are exact.
    """
    cosets = hecke_cosets(m)
    weights: dict[tuple[QuadForm, QuadForm], int] = {}
    for pair in pairs:
        for coset in cosets:
            key = class_pair_key(pair.z1, reduce_form(hecke_image(pair.z2, coset)))
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
    and multiplicity attributes (see cmcycles.CMCycle).
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return sum(entry.multiplicity for entry in cycle.pairs
               if graph_distance(m, entry.z1, entry.z2) < epsilon)
