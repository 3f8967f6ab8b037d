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
cycle_log_norm multiplies the per-pair modular values of n, each a cut
product with its relative budget (modpoly_eval), as integer mantissas and
returns n as a Fixed (numerics), with an error bound in integer units that
counts every truncation, which recognize_with_retries certifies; its
name is kept for the benchmark's layer metric.  The first pass is sized
from exact data: log|j(z)| is about pi sqrt|d| / a at the
reduced form (a, b, c) of z, so the reduced forms of the pairs and their
Hecke images give the size of n, and the j-values it reads, before any
j-value is computed (norm_plan, from which a sweep evaluates each form
once for its whole grid); a retry is only a fallback.
Inverting both classes sends (z1, z2) to (-conj z1, -conj z2), where |phi_m|
is the same (phi_m has integer coefficients, j(-conj z) = conj j(z)), as
are G_s and the distance to the Hecke graph; so a cycle is built folded,
one pair per such orbit (quadforms.conjugate_key) with the orbit's summed
multiplicity, and values are computed once per orbit.  Chain sums group
further, by class pair (greens.class_pair_weights).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .numerics import GUARD_BITS, Fixed, PrecisionContext, recognize_with_retries
from .quadforms import (
    Discriminant,
    QuadForm,
    conjugate_key,
    enumerate_reduced,
    hecke_images,
    inverse,
    project_class,
)
from .modular import log_j_size, modpoly_eval


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

    @cached_property
    def orbit_counts(self) -> tuple[tuple[CyclePair, bool, int], ...]:
        """(pair, self-conjugate, count) per pair, computed once per cycle:
        the certified product (the cycle product's power-th root) takes
        |Re v| count times from a self-conjugate pair (its own inverse
        pair), |v|^2 count times from a folded one.  Raises CycleError when
        the divisor does not divide a multiplicity."""
        out = []
        for pair in self.pairs:
            real = (inverse(pair.z1), inverse(pair.z2)) == (pair.z1, pair.z2)
            step = self.power if real else 2 * self.power
            if pair.multiplicity % step:
                raise CycleError(
                    f"pair {pair.key} has multiplicity {pair.multiplicity}, "
                    f"not a multiple of {step}")
            out.append((pair, real, pair.multiplicity // step))
        return tuple(out)


def _as_disc(d) -> Discriminant:
    return d if isinstance(d, Discriminant) else Discriminant.of(d)


def cycle_case(d1, d2) -> str:
    """"small" when d1*d2 is a perfect square (same imaginary field), else "big"."""
    d1 = _as_disc(d1)
    d2 = _as_disc(d2)
    prod = d1.d * d2.d
    r = math.isqrt(prod)
    return "small" if r * r == prod else "big"


def _folded(points) -> tuple[CyclePair, ...]:
    """One CyclePair per conjugate_key of the (f1, f2, multiplicity) points,
    in ascending key order, with the summed multiplicity."""
    counts: Counter[tuple[QuadForm, QuadForm]] = Counter()
    for f1, f2, n in points:
        counts[conjugate_key(f1, f2)] += n
    return tuple(CyclePair(f1, f2, n) for (f1, f2), n in sorted(counts.items()))


def big_cm_cycle(d1, d2) -> CMCycle:
    """The Cl(d1) x Cl(d2) orbit with multiplicity 4 per pair, folded.

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
    pairs = _folded((fa, fb, BIG_MULTIPLICITY)
                    for fa in g1.reduced_forms for fb in g2.reduced_forms)
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
    inverses, so it stays in sigma's conjugate orbit: each sigma adds 2 to
    the multiplicity of its orbit, and group_order is 2 h(d').
    """
    d1 = _as_disc(d1)
    d2 = _as_disc(d2)
    if cycle_case(d1, d2) == "big":
        raise CycleError(
            f"d1*d2 = {d1.d * d2.d} is not a perfect square; use big_cm_cycle")
    dp = common_order_discriminant(d1, d2)
    pairs = _folded((project_class(sigma, d1), project_class(sigma, d2), 2)
                    for sigma in enumerate_reduced(dp).reduced_forms)
    return CMCycle(kind="small", d1=d1, d2=d2, pairs=pairs)


@lru_cache(maxsize=4096)
def build_cycle(d1, d2) -> CMCycle:
    """Dispatch on the square test; see big_cm_cycle and small_cm_cycle.
    Memoised, so every m and stage of a pair reads one orbit_counts."""
    if cycle_case(d1, d2) == "small":
        return small_cm_cycle(d1, d2)
    return big_cm_cycle(d1, d2)


def norm_plan(cycle: CMCycle, m: int,
              ctx: PrecisionContext) -> tuple[PrecisionContext, frozenset[QuadForm]]:
    """The first pass of cycle_norm_integer: its context, and the reduced
    forms whose j-values it reads.

    The forms are what modpoly_eval asks j_eval for: z1, and the
    hecke_images of z2 (reduced, one per Hecke coset), for each pair of
    the cycle.  The precision is the larger of
    ctx.mantissa_bits and 64 bits over an estimate of log2 of the certified
    product: each factor j(z1) - j(M z2) has a log size of about the larger
    of log_j_size at z1 and at the reduced form of M z2, summed over the
    pairs, with their counts (CMCycle.orbit_counts; a folded pair counts
    twice), and the cosets.  No j-value is computed.
    """
    images: dict[QuadForm, tuple[QuadForm, ...]] = {}
    forms: set[QuadForm] = set()
    total = 0.0
    for pair, real, count in cycle.orbit_counts:
        ws = images.get(pair.z2)
        if ws is None:
            ws = images[pair.z2] = hecke_images(pair.z2, m)
            forms.update(ws)
        forms.add(pair.z1)
        near = log_j_size(pair.z1)
        total += (count if real else 2 * count) * sum(max(near, log_j_size(w)) for w in ws)
    bits = math.ceil(total / math.log(2)) + 64
    return ctx.with_bits(max(ctx.mantissa_bits, bits)), frozenset(forms)


def _cut(x: int, width: int) -> tuple[int, int]:
    """(x >> k, k): the top width bits of x >= 0, k = 0 when x has no more."""
    k = max(x.bit_length() - width, 0)
    return x >> k, k


def cycle_log_norm(cycle: CMCycle, m: int, ctx: PrecisionContext) -> Fixed:
    """The certified product of |phi_m(j(z1), j(z2))| (n0 for a big cycle)
    as a Fixed, for recognize_with_retries; the benchmark wraps this name.

    Each pair's modpoly_eval value v has |v - t| <= (e^S - 1) min(|v|, |t|),
    S its budget, t the true value.  A self-conjugate pair (both classes
    their own inverse) has a real t and contributes c = |Re v|, within
    r |t| of |t|, r = S (1 + S) >= e^S - 1 (S <= 1); a folded pair
    c = |v|^2, within a factor e^(2S) of |t|^2; each count times
    (CMCycle.orbit_counts).  So max(c/|t|, |t|/c) <= e^rho, rho = r/(1 - r)
    resp. 2S.  Factors and the running product are cut to W-bit mantissas,
    W = mantissa_bits + GUARD_BITS, each cut losing under 2^(1 - W) of what
    it keeps.  With T the sum of the rho's and of 2^(1 - W) per cut, a
    factor's rho and cuts counted once per use (count times), in units of
    2^-(W + 64), the units of S, rounded up, the product is within a factor
    e^T of the true one, so err = T (1 + T) >= e^T - 1 (T <= 1) times it,
    rounded up.  Raises SingularCycleError the moment a factor is decided
    zero; the order is fixed (the cycle's pair order) so the product is
    bit-stable.
    """
    width = ctx.mantissa_bits + GUARD_BITS
    unit, man, exp, total = width + 64, 1, 0, 0
    one, per_cut = 1 << unit, 1 << 65
    for pair, real, count in cycle.orbit_counts:
        v = modpoly_eval(m, pair.z1, pair.z2, ctx)
        if v.is_zero:
            raise SingularCycleError(
                f"phi_{m} vanishes at cycle pair {pair.key}",
                pair=pair, zero_cosets=v.zero_cosets)
        s = v.budget
        if real:
            factor, k = _cut(abs(v.re), width)
            cuts, k = bool(k), k - v.shift
            # r >= 1 (or S > 1) leaves T > 1, and err unbounded
            r = s + -(-s * s >> unit) if s <= one else one
            share = -(-r * one // (one - r)) if r < one else math.inf
        else:
            # both cut by the larger to W + 3 bits (>= 2^(W + 2)): the under
            # 2(a + b) + 2 units lost are under 2^(1 - W) of a^2 + b^2
            a, b = abs(v.re), abs(v.im)
            k = max(max(a, b).bit_length() - width - 3, 0)
            factor, k2 = _cut((a >> k) ** 2 + (b >> k) ** 2, width)
            cuts, k = bool(k) + bool(k2), 2 * (k - v.shift) + k2
            share = 2 * s
        man, cut = _cut(man * factor ** count, width)
        exp += k * count + cut
        # a factor's own cuts compound in factor ** count: once per use
        total += count * (share + cuts * per_cut) + bool(cut) * per_cut
    err = -(-man * total * (one + total) >> 2 * unit) if total <= one else math.inf
    return Fixed(man, err, -exp)


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
