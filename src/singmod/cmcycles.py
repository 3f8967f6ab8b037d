"""Galois 0-cycles of CM point pairs and exact norms of modular values.

A pair of discriminants d1, d2 < 0 falls into one of two regimes, decided by
whether d1*d2 is a perfect square:

  * big cycle (non-square): the orbit is the full Cl(d1) x Cl(d2) grid of
    reduced-form pairs, each with multiplicity 4.  When gcd(d1, d2) = 1 the
    product over the cycle is exactly the absolute norm of
    phi_m(j(z1), j(z2)) from the compositum of the two ring class fields
    down to Q; with a common factor the cycle is still Galois-stable, so the
    product is an integer, but it is only reported diagnostically.

  * small cycle (square, same imaginary field): both points live over the
    same field; the orbit is driven by the class group of the common order
    O_d' with d' = lcm(f1, f2)^2 * d_K (the largest negative discriminant
    whose order sits inside both O_d1 and O_d2), acting through the
    projection maps, plus the complex-conjugate branch, which inverts both
    classes.

Norms are assembled as products of per-pair modular values and certified
by recognize_with_retries from the context's precision up, which sizes any
retry.  A big cycle's product is n0^4, where n0 is the product over the
grid at multiplicity 1 and is itself an integer (see cycle_norm_integer),
so only n0 is certified, at a quarter of the bits.
Inverting both classes sends (z1, z2) to (-conj z1, -conj z2), where |phi_m|
is the same (phi_m has integer coefficients, j(-conj z) = conj j(z)), so
values are computed once per such orbit (conjugate_orbits).  Chain sums
group by class pair instead (greens.class_pair_weights).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import mpmath as mp

from .numerics import PrecisionContext, recognize_with_retries
from .quadforms import (
    CMPoint,
    Discriminant,
    QuadForm,
    cm_point,
    enumerate_reduced,
    inverse,
    project_class,
)
from .modular import modpoly_eval


class CycleError(ValueError):
    pass


class SingularCycleError(CycleError):
    """phi_m vanishes at a cycle point; the norm is zero, not a unit witness."""

    def __init__(self, message, pair=None, zero_cosets=()):
        super().__init__(message)
        self.pair = pair
        self.zero_cosets = tuple(zero_cosets)


@dataclass(frozen=True)
class CyclePair:
    z1: CMPoint
    z2: CMPoint
    multiplicity: int

    @property
    def key(self):
        return (self.z1.a, self.z1.b, self.z2.a, self.z2.b)


@dataclass(frozen=True)
class CMCycle:
    kind: str  # "big", "small" or "diagnostic"
    d1: Discriminant
    d2: Discriminant
    pairs: tuple[CyclePair, ...]
    group_order: int

    @property
    def is_exact(self) -> bool:
        """Whether the cycle product is asserted to equal the field norm."""
        return self.kind in ("big", "small")


def _as_disc(d) -> Discriminant:
    return d if isinstance(d, Discriminant) else Discriminant.of(d)


def cycle_case(d1, d2) -> str:
    """"small" when d1*d2 is a perfect square (same imaginary field), else "big"."""
    d1 = _as_disc(d1)
    d2 = _as_disc(d2)
    prod = d1.d * d2.d
    r = math.isqrt(prod)
    return "small" if r * r == prod else "big"


BIG_MULTIPLICITY = 4


def big_cm_cycle(d1, d2) -> CMCycle:
    """The Cl(d1) x Cl(d2) orbit with multiplicity 4 per pair.

    Multiplicity 4 reflects the four-term orbit structure: replacing a point
    by its negated conjugate walks the inverse class, which is already in the
    grid, so each of the four branches traverses the same multiset.  With
    gcd(d1, d2) > 1 the result is tagged "diagnostic": the product is a
    well-defined integer but not certified to be the norm itself.

    Either kind has product n0^4, with n0 the product over the grid at
    multiplicity 1; the grid is Galois-stable, so n0 is an integer and
    cycle_norm_integer certifies n0 alone.
    """
    d1 = _as_disc(d1)
    d2 = _as_disc(d2)
    if cycle_case(d1, d2) == "small":
        raise CycleError(
            f"d1*d2 = {d1.d * d2.d} is a perfect square; use small_cm_cycle")
    g1 = enumerate_reduced(d1.d)
    g2 = enumerate_reduced(d2.d)
    pairs = tuple(
        CyclePair(cm_point(fa), cm_point(fb), BIG_MULTIPLICITY)
        for fa in g1.reduced_forms
        for fb in g2.reduced_forms
    )
    kind = "big" if math.gcd(-d1.d, -d2.d) == 1 else "diagnostic"
    return CMCycle(kind=kind, d1=d1, d2=d2, pairs=pairs,
                   group_order=BIG_MULTIPLICITY * g1.h * g2.h)


def common_order_discriminant(d1, d2) -> int:
    """d' = lcm(f1, f2)^2 * d_K, the finest order contained in both O_di."""
    d1 = _as_disc(d1)
    d2 = _as_disc(d2)
    if d1.d_K != d2.d_K:
        raise CycleError(
            f"discriminants {d1.d} and {d2.d} lie in different fields")
    return math.lcm(d1.f, d2.f) ** 2 * d1.d_K


def small_cm_cycle(d1, d2) -> CMCycle:
    """Orbit of the principal pair under Cl(d') plus the conjugate branch.

    sigma acts on coordinate i through the projection Cl(d') -> Cl(d_i); the
    conjugate branch replaces both classes by their inverses.  Coinciding
    pairs are merged with summed multiplicities; group_order stays 2 h(d').
    """
    d1 = _as_disc(d1)
    d2 = _as_disc(d2)
    if cycle_case(d1, d2) == "big":
        raise CycleError(
            f"d1*d2 = {d1.d * d2.d} is not a perfect square; use big_cm_cycle")
    dp = common_order_discriminant(d1, d2)
    gp = enumerate_reduced(dp)
    counts: dict[tuple, CyclePair] = {}

    def add(f1: QuadForm, f2: QuadForm):
        pair = CyclePair(cm_point(f1), cm_point(f2), 1)
        prev = counts.get(pair.key)
        if prev is not None:
            pair = CyclePair(prev.z1, prev.z2, prev.multiplicity + 1)
        counts[pair.key] = pair

    for sigma in gp.reduced_forms:
        c1 = project_class(sigma, d1)
        c2 = project_class(sigma, d2)
        add(c1, c2)
        add(inverse(c1), inverse(c2))
    pairs = tuple(counts[k] for k in sorted(counts))
    return CMCycle(kind="small", d1=d1, d2=d2, pairs=pairs,
                   group_order=2 * gp.h)


def build_cycle(d1, d2) -> CMCycle:
    """Dispatch on the square test; see big_cm_cycle and small_cm_cycle."""
    if cycle_case(d1, d2) == "small":
        return small_cm_cycle(d1, d2)
    return big_cm_cycle(d1, d2)


def conjugate_orbits(pairs) -> list[CyclePair]:
    """One pair per orbit of (C1, C2) -> (C1^-1, C2^-1), sorted by key: the
    pair of smaller key, with the orbit's summed multiplicity.  The first
    zero in key order is an orbit's smaller key, so zeros are reported at
    the same pair as over the unfolded cycle."""
    orbits: dict[tuple, CyclePair] = {}
    for pair in sorted(pairs, key=lambda p: p.key):
        f1, f2 = inverse(pair.z1.form), inverse(pair.z2.form)
        twin = orbits.get((f1.a, f1.b, f2.a, f2.b))
        if twin is None:
            orbits[pair.key] = pair
        else:
            orbits[twin.key] = replace(
                twin, multiplicity=twin.multiplicity + pair.multiplicity)
    return list(orbits.values())


@dataclass(frozen=True)
class CycleLogNorm:
    """Sum of multiplicity * log|phi_m| over the cycle, with an error bound.

    error_bound is an mpf bound on |value - true log|, so it does not
    underflow at thousands of bits.
    """

    value: mp.mpf
    error_bound: mp.mpf

    def __float__(self):
        return float(self.value)


def cycle_log_norm(cycle: CMCycle, m: int, ctx: PrecisionContext) -> CycleLogNorm:
    """Natural log of the cycle product of |phi_m(j(z1), j(z2))|.

    Raises SingularCycleError the moment a factor is numerically zero; the
    iteration order is fixed (conjugate_orbits, sorted by form key) so sums
    are bit-stable.  A value with relative error e < 1 has log error at most
    e / (1 - e); the rounding of each log and of the running sum is added
    on top.
    """
    with ctx.workprec():
        ulp = mp.mpf(2) ** (1 - mp.mp.prec)
        total = mp.mpf(0)
        err = mp.mpf(0)
        for pair in conjugate_orbits(cycle.pairs):
            v = modpoly_eval(m, pair.z1, pair.z2, ctx)
            if v.is_zero:
                raise SingularCycleError(
                    f"phi_{m} vanishes at cycle pair {pair.key}",
                    pair=pair, zero_cosets=v.zero_cosets)
            log_abs = v.log_abs()
            total += pair.multiplicity * log_abs
            log_err = (v.rel_error / (1 - v.rel_error) if v.rel_error < 1
                       else mp.inf)
            # plus the rounding of the log and of the running sum
            err += (pair.multiplicity * (log_err + abs(log_abs) * ulp)
                    + abs(total) * ulp)
        return CycleLogNorm(value=total, error_bound=err)


def cycle_norm_integer(cycle: CMCycle, m: int, ctx: PrecisionContext) -> int:
    """The exact integer |product over the cycle of phi_m|.

    Small cycles are certified as they stand.  A big or diagnostic cycle
    (see big_cm_cycle) gives every pair of the Cl(d1) x Cl(d2) grid
    multiplicity 4, so its product is n0^4 with

        n0 = |product over the grid of phi_m(j(z1), j(z2))|.

    n0 is an integer: the j-values of the reduced forms of discriminant d
    are all the roots of the class polynomial H_d, so each coordinate of the
    grid runs over all roots of H_d1, resp. H_d2, and any sigma in
    Gal(Qbar/Q) permutes the grid.  The grid product is therefore rational,
    and it is an algebraic integer because phi_m lies in Z[X, Y] and
    j-values are algebraic integers.  So n0 is certified at multiplicity 1,
    from ctx.mantissa_bits up (recognize_with_retries sizes any retry from
    the shortfall), and n0^4 is returned exactly.
    """
    power = 1
    if cycle.kind != "small":
        power = BIG_MULTIPLICITY
        cycle = replace(
            cycle, pairs=tuple(CyclePair(p.z1, p.z2, 1) for p in cycle.pairs),
            group_order=cycle.group_order // BIG_MULTIPLICITY)

    def compute(current):
        log_norm = cycle_log_norm(cycle, m, current)
        with current.workprec():
            value = mp.exp(log_norm.value)
            # |e^(L + t) - e^L| <= e^L (e^|t| - 1) for |t| <= error_bound
            return [(value, value * mp.expm1(log_norm.error_bound))]

    return recognize_with_retries(compute, ctx)[0] ** power
