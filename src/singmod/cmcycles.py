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

Norms are products of per-pair modular values, multiplied as mpfs with a
relative error bound that counts every rounding (cycle_log_norm), and
certified by recognize_with_retries.  The first pass is sized from exact
data: log|j(z)| is about pi sqrt|d| / a at the reduced form (a, b, c) of z,
so the reduced forms of the pairs and their Hecke images give the size of
the product, and the j-values it reads, before any j-value is computed
(norm_plan, which a sweep uses to evaluate each form once for its whole
grid); a retry is only a fallback.  A
big cycle's product is n0^4, where n0 is the product over the grid at
multiplicity 1 and is itself an integer (see cycle_norm_integer), so only
n0 is certified, at a quarter of the bits.
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
    counts: dict[tuple, CyclePair] = {}

    def add(f1: QuadForm, f2: QuadForm):
        pair = CyclePair(f1, f2, 1)
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


def norm_plan(cycle: CMCycle, m: int,
              ctx: PrecisionContext) -> tuple[PrecisionContext, frozenset[QuadForm]]:
    """The first pass of cycle_norm_integer: its context, and the reduced
    forms whose j-values it reads.

    The forms are what modpoly_eval asks j_eval for: z1, and the reduced
    hecke_image of z2 under every Hecke coset, for each conjugate_orbits
    representative.  The precision is the larger of ctx.mantissa_bits and
    64 bits over an estimate of log2 of the certified product (a big cycle
    at multiplicity 1, see cycle_norm_integer): each factor
    j(z1) - j(M z2) has a log size of about the larger of log_j_size at z1
    and at the reduced form of M z2, summed over the orbits, with
    multiplicity, and the cosets.  No j-value is computed.
    """
    power = 1 if cycle.kind == "small" else BIG_MULTIPLICITY
    cosets = hecke_cosets(m)
    images: dict[QuadForm, list[QuadForm]] = {}
    forms: set[QuadForm] = set()
    total = 0.0
    for pair in conjugate_orbits(cycle.pairs):
        ws = images.get(pair.z2)
        if ws is None:
            ws = images[pair.z2] = [reduce_form(hecke_image(pair.z2, c)) for c in cosets]
            forms.update(ws)
        forms.add(pair.z1)
        near = log_j_size(pair.z1)
        total += pair.multiplicity // power * sum(max(near, log_j_size(w)) for w in ws)
    bits = math.ceil(total / math.log(2)) + 64
    return ctx.with_bits(max(ctx.mantissa_bits, bits)), frozenset(forms)


# error-bound arithmetic: 53 bits, rounded up
_UP = {"prec": 53, "rounding": "u"}


@dataclass(frozen=True)
class CycleLogNorm:
    """The cycle product of |phi_m| as an mpf, with its logarithm on demand.

    The true product lies within product * rel_error of product; rel_error
    is an mpf rounded up, so it does not underflow at thousands of bits.
    prec is the working precision the product was formed at; value, the
    natural log, is taken there, and error_bound bounds |value - true log|.
    """

    product: mp.mpf
    rel_error: mp.mpf
    prec: int

    @property
    def value(self):
        with mp.workprec(self.prec):
            return mp.log(self.product)

    @property
    def error_bound(self):
        """|log(1 + t)| <= rel / (1 - rel) for |t| <= rel < 1, plus two ulps
        for the rounding of the log."""
        rel = self.rel_error
        if not rel < 1:
            return mp.inf
        log_err = mp.fdiv(rel, mp.fsub(1, rel, prec=53, rounding="d"), **_UP)
        return mp.fadd(log_err, mp.fmul(abs(self.value), mp.ldexp(1, 1 - self.prec),
                                        **_UP), **_UP)

    def __float__(self):
        return float(self.value)


def cycle_log_norm(cycle: CMCycle, m: int, ctx: PrecisionContext) -> CycleLogNorm:
    """The cycle product of |phi_m(j(z1), j(z2))|, with a relative error bound.

    One value v per conjugate orbit (conjugate_orbits).  A self-conjugate
    orbit (both classes their own inverse) has a real value, so it
    contributes |Re v| once per unit of multiplicity; a folded pair
    contributes |v|^2 = Re(v)^2 + Im(v)^2 once per two, its multiplicity
    being even (a pair and its inverse pair occur equally often).  If v has
    relative error at most r, |Re v| is within r of the true factor and
    |v|^2 within (1 + r)^2 - 1; each mpf operation adds a relative rounding
    of at most u = 2^(1 - prec).  With S the sum of all these r's and u's,
    the product's relative error is at most prod (1 + r_i) - 1 <= e^S - 1
    <= S (1 + S) for S <= 1.

    Raises SingularCycleError the moment a factor is numerically zero; the
    iteration order is fixed (conjugate_orbits, sorted by form key) so the
    product is bit-stable.
    """
    with ctx.workprec():
        prec = mp.mp.prec
        u = mp.ldexp(1, 1 - prec)
        product = mp.mpf(1)
        budget = mp.mpf(0)
        for pair in conjugate_orbits(cycle.pairs):
            v = modpoly_eval(m, pair.z1, pair.z2, ctx)
            if v.is_zero:
                raise SingularCycleError(
                    f"phi_{m} vanishes at cycle pair {pair.key}",
                    pair=pair, zero_cosets=v.zero_cosets)
            if _inverse_key(pair) == pair.key:
                factor, count = abs(v.value.real), pair.multiplicity
                share = mp.fadd(v.rel_error, u, **_UP)
            elif pair.multiplicity % 2 == 0:
                re, im = v.value.real, v.value.imag
                factor, count = re * re + im * im, pair.multiplicity // 2
                # 2 r for |v|^2, 2 u for forming it, u for the multiplication
                share = mp.fadd(2 * v.rel_error, 3 * u, **_UP)
            else:
                raise CycleError(
                    f"pair {pair.key} and its inverse pair differ in multiplicity")
            for _ in range(count):
                product *= factor
            budget = mp.fadd(budget, mp.fmul(count, share, **_UP), **_UP)
        rel = mp.fmul(budget, mp.fadd(1, budget, **_UP), **_UP) if budget <= 1 else mp.inf
        return CycleLogNorm(product=product, rel_error=rel, prec=prec)


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
    j-values are algebraic integers.  So n0 is certified at multiplicity 1
    and n0^4 is returned exactly.

    The product x from cycle_log_norm is recognized with err = x rel_error.
    The first pass runs at the precision of norm_plan, enough for the whole
    integer part; recognize_with_retries sizes a retry from the shortfall
    should the estimate fall short.
    """
    start, _ = norm_plan(cycle, m, ctx)
    power = 1
    if cycle.kind != "small":
        power = BIG_MULTIPLICITY
        cycle = replace(
            cycle, pairs=tuple(CyclePair(p.z1, p.z2, 1) for p in cycle.pairs))

    def compute(current):
        norm = cycle_log_norm(cycle, m, current)
        return [(norm.product, mp.fmul(norm.product, norm.rel_error, **_UP))]

    return recognize_with_retries(compute, start)[0] ** power
