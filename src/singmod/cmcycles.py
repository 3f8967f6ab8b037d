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

A cycle's product is n^power for an integer n that is certified
(CMCycle.power: 1 for a small cycle; 4 for a big one, whose n is the
product n0 over the grid at multiplicity 1, an integer by
cycle_norm_integer, so n0 is certified at a quarter of the bits).
cycle_log_norm multiplies the per-pair modular values of n as mpfs and
returns (n as an mpf, an error bound that counts every rounding), the pair
recognize_with_retries certifies; its name is kept for the benchmark's
layer metric.  The first pass is sized from exact data: log|j(z)| is about
pi sqrt|d| / a at the reduced form (a, b, c) of z, so the reduced forms of
the pairs and their Hecke images give the size of n, and the j-values it
reads, before any j-value is computed (norm_plan, which a sweep uses to
evaluate each form once for its whole grid); a retry is only a fallback.
Inverting both classes sends (z1, z2) to (-conj z1, -conj z2), where |phi_m|
is the same (phi_m has integer coefficients, j(-conj z) = conj j(z)), so
values are computed once per such orbit (conjugate_orbits).  Chain sums
group by class pair instead (greens.class_pair_weights).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

import mpmath as mp

from .numerics import PrecisionContext, recognize_with_retries
from .quadforms import (
    Discriminant,
    QuadForm,
    enumerate_reduced,
    hecke_image,
    inverse,
    project_class,
    reduce_form,
)
from .modular import hecke_cosets, log_j_size, modpoly_eval


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
    """A pair of CM points, each its reduced form, with a multiplicity."""

    z1: QuadForm
    z2: QuadForm
    multiplicity: int

    @property
    def key(self):
        return (self.z1.a, self.z1.b, self.z2.a, self.z2.b)


BIG_MULTIPLICITY = 4


@dataclass(frozen=True)
class CMCycle:
    kind: str  # "big", "small" or "diagnostic"
    d1: Discriminant
    d2: Discriminant
    pairs: tuple[CyclePair, ...]

    @property
    def group_order(self) -> int:
        """The pairs' multiplicities summed: 4 h(d1) h(d2) for a big cycle,
        2 h(d') for a small one."""
        return sum(p.multiplicity for p in self.pairs)

    @property
    def power(self) -> int:
        """The cycle product is n^power for the integer n that is certified:
        power is 1 for a small cycle, BIG_MULTIPLICITY for a big or
        diagnostic one, whose n is the grid product n0 (cycle_norm_integer)."""
        return 1 if self.kind == "small" else BIG_MULTIPLICITY

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
        CyclePair(fa, fb, BIG_MULTIPLICITY)
        for fa in g1.reduced_forms
        for fb in g2.reduced_forms
    )
    kind = "big" if math.gcd(-d1.d, -d2.d) == 1 else "diagnostic"
    return CMCycle(kind=kind, d1=d1, d2=d2, pairs=pairs)


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

    sigma acts on coordinate i through the projection Cl(d') -> Cl(d_i)
    (project_class), which is the ascending isogeny of degree f'/f_i: the
    CM point of sigma maps to the one image of determinant f'/f_i that has
    discriminant d_i.  The conjugate branch replaces both classes by their
    inverses.  Coinciding pairs are merged with summed multiplicities, so
    group_order is 2 h(d').
    """
    d1 = _as_disc(d1)
    d2 = _as_disc(d2)
    if cycle_case(d1, d2) == "big":
        raise CycleError(
            f"d1*d2 = {d1.d * d2.d} is not a perfect square; use big_cm_cycle")
    dp = common_order_discriminant(d1, d2)
    gp = enumerate_reduced(dp)
    counts: Counter[tuple[QuadForm, QuadForm]] = Counter()
    for sigma in gp.reduced_forms:
        c1 = project_class(sigma, d1)
        c2 = project_class(sigma, d2)
        counts[c1, c2] += 1
        counts[inverse(c1), inverse(c2)] += 1
    pairs = tuple(CyclePair(f1, f2, n) for (f1, f2), n in sorted(counts.items()))
    return CMCycle(kind="small", d1=d1, d2=d2, pairs=pairs)


def build_cycle(d1, d2) -> CMCycle:
    """Dispatch on the square test; see big_cm_cycle and small_cm_cycle."""
    if cycle_case(d1, d2) == "small":
        return small_cm_cycle(d1, d2)
    return big_cm_cycle(d1, d2)


def _inverse_key(pair: CyclePair) -> tuple:
    """The key of the pair of inverse classes (C1^-1, C2^-1)."""
    f1, f2 = inverse(pair.z1), inverse(pair.z2)
    return (f1.a, f1.b, f2.a, f2.b)


def conjugate_orbits(pairs) -> list[CyclePair]:
    """One pair per orbit of (C1, C2) -> (C1^-1, C2^-1), sorted by key: the
    pair of smaller key, with the orbit's summed multiplicity.  The first
    zero in key order is an orbit's smaller key, so zeros are reported at
    the same pair as over the unfolded cycle."""
    orbits: dict[tuple, CyclePair] = {}
    for pair in sorted(pairs, key=lambda p: p.key):
        twin = orbits.get(_inverse_key(pair))
        if twin is None:
            orbits[pair.key] = pair
        else:
            orbits[twin.key] = replace(
                twin, multiplicity=twin.multiplicity + pair.multiplicity)
    return list(orbits.values())


def _orbit_counts(cycle: CMCycle):
    """(pair, self-conjugate, count) per conjugate_orbits representative: the
    certified product (the cycle product's cycle.power-th root) takes |Re v|
    count times from a self-conjugate orbit, |v|^2 count times from a folded
    pair.  Raises CycleError when the divisor does not divide a multiplicity."""
    for pair in conjugate_orbits(cycle.pairs):
        real = _inverse_key(pair) == pair.key
        step = cycle.power if real else 2 * cycle.power
        if pair.multiplicity % step:
            raise CycleError(
                f"pair {pair.key} has multiplicity {pair.multiplicity}, "
                f"not a multiple of {step}")
        yield pair, real, pair.multiplicity // step


def norm_plan(cycle: CMCycle, m: int,
              ctx: PrecisionContext) -> tuple[PrecisionContext, frozenset[QuadForm]]:
    """The first pass of cycle_norm_integer: its context, and the reduced
    forms whose j-values it reads.

    The forms are what modpoly_eval asks j_eval for: z1, and the reduced
    hecke_image of z2 under every Hecke coset, for each conjugate_orbits
    representative.  The precision is the larger of ctx.mantissa_bits and
    64 bits over an estimate of log2 of the certified product: each factor
    j(z1) - j(M z2) has a log size of about the larger of log_j_size at z1
    and at the reduced form of M z2, summed over the orbits, with their
    counts (_orbit_counts; a folded pair counts twice), and the cosets.  No
    j-value is computed.
    """
    cosets = hecke_cosets(m)
    images: dict[QuadForm, list[QuadForm]] = {}
    forms: set[QuadForm] = set()
    total = 0.0
    for pair, real, count in _orbit_counts(cycle):
        ws = images.get(pair.z2)
        if ws is None:
            ws = images[pair.z2] = [reduce_form(hecke_image(pair.z2, c)) for c in cosets]
            forms.update(ws)
        forms.add(pair.z1)
        near = log_j_size(pair.z1)
        total += (count if real else 2 * count) * sum(max(near, log_j_size(w)) for w in ws)
    bits = math.ceil(total / math.log(2)) + 64
    return ctx.with_bits(max(ctx.mantissa_bits, bits)), frozenset(forms)


# error-bound arithmetic: 53 bits, rounded up
_UP = {"prec": 53, "rounding": "u"}


def cycle_log_norm(cycle: CMCycle, m: int, ctx: PrecisionContext) -> tuple[mp.mpf, mp.mpf]:
    """The certified product of |phi_m(j(z1), j(z2))| as (x, err), with
    |x - true product| <= err: the pair recognize_with_retries certifies.

    The certified product is the cycle product's cycle.power-th root (n0 for
    a big cycle, see cycle_norm_integer).  One value v per conjugate orbit
    (conjugate_orbits): a self-conjugate orbit (both classes their own
    inverse) has a real value, and contributes |Re v|; a folded pair
    contributes |v|^2 = Re(v)^2 + Im(v)^2; each as often as _orbit_counts
    says.  If v has relative error at most r, |Re v| is within r of the true
    factor and |v|^2 within (1 + r)^2 - 1; each mpf operation adds a
    relative rounding of at most u = 2^(1 - prec).  With S the sum of all
    these r's and u's, the product's relative error is at most
    prod (1 + r_i) - 1 <= e^S - 1 <= S (1 + S) for S <= 1, so
    err = x S (1 + S), rounded up.  The name is kept because the
    benchmark's layer metric wraps it.

    Raises SingularCycleError the moment a factor is decided zero; the
    iteration order is fixed (conjugate_orbits, sorted by form key) so the
    product is bit-stable.
    """
    with ctx.workprec():
        u = mp.ldexp(1, 1 - mp.mp.prec)
        product = mp.mpf(1)
        budget = mp.mpf(0)
        for pair, real, count in _orbit_counts(cycle):
            v = modpoly_eval(m, pair.z1, pair.z2, ctx)
            if v.is_zero:
                raise SingularCycleError(
                    f"phi_{m} vanishes at cycle pair {pair.key}",
                    pair=pair, zero_cosets=v.zero_cosets)
            if real:
                factor = abs(v.value.real)
                share = mp.fadd(v.rel_error, u, **_UP)
            else:
                re, im = v.value.real, v.value.imag
                factor = re * re + im * im
                # 2 r for |v|^2, 2 u for forming it, u for the multiplication
                share = mp.fadd(2 * v.rel_error, 3 * u, **_UP)
            for _ in range(count):
                product *= factor
            budget = mp.fadd(budget, mp.fmul(count, share, **_UP), **_UP)
        rel = mp.fmul(budget, mp.fadd(1, budget, **_UP), **_UP) if budget <= 1 else mp.inf
        return product, mp.fmul(product, rel, **_UP)


def cycle_norm_integer(cycle: CMCycle, m: int, ctx: PrecisionContext) -> int:
    """The exact integer |product over the cycle of phi_m|: the certified
    product of cycle_log_norm, to the power cycle.power.

    Small cycles are certified as they stand.  A big or diagnostic cycle
    (see big_cm_cycle) gives every pair of the Cl(d1) x Cl(d2) grid
    multiplicity 4, so its product is n0^4 with

        n0 = |product over the grid of phi_m(j(z1), j(z2))|.

    n0 is an integer: the j-values of the reduced forms of discriminant d
    are all the roots of the class polynomial H_d, so each coordinate of the
    grid runs over all roots of H_d1, resp. H_d2, and any sigma in
    Gal(Qbar/Q) permutes the grid.  The grid product is therefore rational,
    and it is an algebraic integer because phi_m lies in Z[X, Y] and
    j-values are algebraic integers.  So n0 is certified, at a quarter of
    the bits, and n0^4 is returned exactly.

    The first pass runs at the precision of norm_plan, enough for the whole
    integer part; recognize_with_retries sizes a retry from the shortfall
    should the estimate fall short.
    """
    start, _ = norm_plan(cycle, m, ctx)
    return recognize_with_retries(
        lambda current: [cycle_log_norm(cycle, m, current)], start)[0] ** cycle.power
