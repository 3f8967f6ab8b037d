import math
import types
from fractions import Fraction

import mpmath as mp
import pytest

from singmod import cmcycles, modular, numerics
from singmod.numerics import PrecisionContext
from singmod.quadforms import enumerate_reduced, inverse, project_class
from singmod.modular import classpoly, hecke_cosets, modpoly_eval
from singmod.verify import fundamental_discriminants, sweep_instances
from singmod.cmcycles import (
    CMCycle,
    CycleError,
    CyclePair,
    SingularCycleError,
    big_cm_cycle,
    build_cycle,
    common_order_discriminant,
    cycle_case,
    cycle_log_norm,
    cycle_norm_integer,
    small_cm_cycle,
)

from gross_zagier import gz_epsilon, gz_psi

CTX = PrecisionContext()


def resultant(p, q):
    """Integer resultant via the Sylvester determinant (ascending coeffs)."""
    pc = list(reversed(p))
    qc = list(reversed(q))
    m, n = len(pc) - 1, len(qc) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in pc]
                    + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in qc]
                    + [Fraction(0)] * (size - n - 1 - i))
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    assert det.denominator == 1
    return int(det)


def test_cycle_case():
    assert cycle_case(-3, -4) == "big"
    assert cycle_case(-3, -12) == "small"
    assert cycle_case(-4, -4) == "small"
    assert cycle_case(-15, -60) == "small"
    assert cycle_case(-3, -15) == "big"  # 45 is not a square


def test_big_cycle_structure():
    # Cl(-15) has two classes, each its own inverse, and Cl(-23) three, one
    # of them its own inverse: 2 x 3 grid pairs in 2 x 2 conjugate orbits
    cyc = big_cm_cycle(-15, -23)
    assert cyc.kind == "big" and cyc.is_exact
    assert len(cyc.pairs) == 2 * 2
    assert cyc.group_order == 4 * 2 * 3
    assert sum(p.multiplicity for p in cyc.pairs) == cyc.group_order
    # shared factor: product still integral but only diagnostic
    diag = big_cm_cycle(-3, -15)
    assert diag.kind == "diagnostic" and not diag.is_exact
    with pytest.raises(CycleError):
        big_cm_cycle(-3, -12)


def test_common_order_discriminant():
    assert common_order_discriminant(-3, -12) == -12
    assert common_order_discriminant(-12, -27) == -108
    assert common_order_discriminant(-4, -4) == -4
    with pytest.raises(CycleError):
        common_order_discriminant(-4, -3)


def test_small_cycle_structure():
    cyc = small_cm_cycle(-3, -12)
    assert cyc.kind == "small" and cyc.is_exact
    assert cyc.group_order == 2 * enumerate_reduced(-12).h
    assert sum(p.multiplicity for p in cyc.pairs) == cyc.group_order
    with pytest.raises(CycleError):
        small_cm_cycle(-3, -4)


def test_build_cycle_dispatch():
    assert build_cycle(-3, -4).kind == "big"
    assert build_cycle(-4, -16).kind == "small"


def test_norm_class_number_one_pairs():
    # both class groups trivial: the norm is |j1 - j2|^4 with known j-values
    cases = [(-3, -4, 1728), (-4, -7, 1728 + 3375), (-3, -8, 8000)]
    for d1, d2, diff in cases:
        cyc = big_cm_cycle(d1, d2)
        assert cycle_norm_integer(cyc, 1, CTX) == diff ** 4


def test_norm_matches_resultant_oracle():
    # the m = 1 big-cycle product is the 4th power of the resultant of the
    # two class polynomials
    for d1, d2 in [(-15, -23), (-20, -23), (-15, -47)]:
        cyc = big_cm_cycle(d1, d2)
        expected = abs(resultant(classpoly(d1, CTX), classpoly(d2, CTX))) ** 4
        assert cycle_norm_integer(cyc, 1, CTX) == expected


def test_norm_m2_against_classical_polynomial():
    # phi_2 at the (zeta_3, i) pair equals the classical degree-2 modular
    # polynomial at (0, 1728), evaluated here in exact integer arithmetic
    x, y = 0, 1728
    phi2 = (x ** 3 + y ** 3 - x * x * y * y + 1488 * (x * x * y + x * y * y)
            - 162000 * (x * x + y * y) + 40773375 * x * y
            + 8748000000 * (x + y) - 157464000000000)
    cyc = big_cm_cycle(-3, -4)
    assert cycle_norm_integer(cyc, 2, CTX) == abs(phi2) ** 4


def test_small_cycle_norms():
    # (-3, -12): one pair (zeta_3, sqrt(-3)) of multiplicity 2; j = 0, 54000
    assert cycle_norm_integer(small_cm_cycle(-3, -12), 1, CTX) == 54000 ** 2
    # (-4, -16): (i, 2i) with multiplicity 2; j = 1728, 287496
    assert cycle_norm_integer(small_cm_cycle(-4, -16), 1, CTX) == \
        (287496 - 1728) ** 2


def test_singular_cycle_detected():
    cyc = small_cm_cycle(-4, -4)
    with pytest.raises(SingularCycleError) as err:
        cycle_log_norm(cyc, 2, CTX)
    assert err.value.zero_cosets == ((1, 1, 2),)
    with pytest.raises(SingularCycleError):
        cycle_norm_integer(cyc, 1, CTX)  # phi_1(j, j) = 0


def test_norm_stable_under_doubling():
    cyc = small_cm_cycle(-4, -4)
    a = cycle_norm_integer(cyc, 3, CTX)
    b = cycle_norm_integer(cyc, 3, CTX.with_bits(2 * CTX.mantissa_bits))
    assert a == b and a > 1


@pytest.mark.parametrize("d1, d2, m", [(-3, -4, 1), (-23, -24, 4)])
def test_norm_certified_without_a_probe_pass(monkeypatch, d1, d2, m):
    # one pass, no retry: a small norm at the context precision, a large one
    # at the precision estimated from its reduced forms, close to its size
    bits = []
    inner = cmcycles.cycle_log_norm

    def spy(cycle, order, ctx):
        bits.append(ctx.mantissa_bits)
        return inner(cycle, order, ctx)

    monkeypatch.setattr(cmcycles, "cycle_log_norm", spy)
    cyc = build_cycle(d1, d2)
    n = cycle_norm_integer(cyc, m, CTX)
    n0_bits = math.isqrt(math.isqrt(n)).bit_length()
    assert len(bits) == 1
    if n0_bits + 80 <= CTX.mantissa_bits:
        assert bits == [CTX.mantissa_bits]
    else:
        assert CTX.mantissa_bits < bits[0] <= n0_bits + 80
    monkeypatch.undo()
    assert n == cycle_norm_integer(cyc, m, CTX.with_bits(2048))


@pytest.mark.parametrize("d1, d2, m", [(-23, -24, 4), (-15, -60, 1), (-7, -8, 3)])
def test_orbits_folded_once_per_norm(monkeypatch, d1, d2, m):
    # the cycle is folded once, when it is built, and norm_plan and every
    # cycle_log_norm pass, a retry included, read its one orbit_counts:
    # the inverse pair of each pair is formed once per norm
    folds, inverses, passes = [], [], []
    fold, invert, log_norm = cmcycles._folded, cmcycles.inverse, cmcycles.cycle_log_norm

    def fold_spy(points):
        folds.append(points)
        return fold(points)

    def inverse_spy(form):
        inverses.append(form)
        return invert(form)

    def first_pass_fails(cycle, order, ctx):
        man, err, scale = log_norm(cycle, order, ctx)
        passes.append(ctx.mantissa_bits)
        return numerics.Fixed(man, math.inf if len(passes) == 1 else err, scale)

    want = cycle_norm_integer(build_cycle(d1, d2), m, CTX)
    build_cycle.cache_clear()  # a new cycle, not yet built or folded
    monkeypatch.setattr(cmcycles, "_folded", fold_spy)
    monkeypatch.setattr(cmcycles, "inverse", inverse_spy)
    monkeypatch.setattr(cmcycles, "cycle_log_norm", first_pass_fails)
    cycle = build_cycle(d1, d2)
    assert cycle_norm_integer(cycle, m, CTX) == want
    assert len(passes) == 2 and len(folds) == 1
    assert len(inverses) == 2 * len(cycle.pairs)


def _norm_grid():
    ds = fundamental_discriminants(24)
    return [(d1, d2, m) for i, d1 in enumerate(ds) for d2 in ds[i + 1:]
            if math.gcd(d1, d2) == 1 for m in range(1, 5)]


def _sweep_grid():
    ds = fundamental_discriminants(31)
    return sweep_instances(ds, ds, range(1, 4))


@pytest.mark.parametrize("grid", [_norm_grid, _sweep_grid])
def test_grid_norms_certified_in_one_pass(monkeypatch, grid):
    # every non-zero norm takes one cycle_log_norm pass, at no more than its
    # own size plus 80 bits (or the context's precision); sizing the pass
    # evaluates no j-value, so j_eval runs exactly 1 + sigma(m) times per
    # modpoly_eval
    passes, calls = [], {"j_eval": 0, "expected": 0}
    inner_log, inner_poly, inner_j = (cmcycles.cycle_log_norm, cmcycles.modpoly_eval,
                                      modular.j_eval)

    def log_spy(cycle, order, ctx):
        passes.append(ctx.mantissa_bits)
        return inner_log(cycle, order, ctx)

    def poly_spy(order, z1, z2, ctx):
        calls["expected"] += 1 + len(hecke_cosets(order))
        return inner_poly(order, z1, z2, ctx)

    def j_spy(z, ctx):
        calls["j_eval"] += 1
        return inner_j(z, ctx)

    monkeypatch.setattr(cmcycles, "cycle_log_norm", log_spy)
    monkeypatch.setattr(cmcycles, "modpoly_eval", poly_spy)
    monkeypatch.setattr(modular, "j_eval", j_spy)
    instances = grid()
    assert len(instances) == {_norm_grid: 140, _sweep_grid: 168}[grid]
    certified = 0
    for d1, d2, m in instances:
        passes.clear()
        cycle = build_cycle(d1, d2)
        try:
            n = cycle_norm_integer(cycle, m, CTX)
        except SingularCycleError:
            continue
        n0 = n if cycle.kind == "small" else math.isqrt(math.isqrt(n))
        assert len(passes) == 1, (d1, d2, m, passes)
        assert passes[0] <= max(CTX.mantissa_bits, n0.bit_length() + 80), (d1, d2, m)
        certified += 1
    assert certified > 100
    assert calls["j_eval"] == calls["expected"] > 0


def test_cycle_product_within_its_error_bound():
    # at a precision far below the norm's size the product is not an
    # integer, and the bound must still cover its distance to the certified
    # integer, the norm's cycle.power-th root
    for cyc, m in [(big_cm_cycle(-15, -23), 2), (big_cm_cycle(-7, -8), 3),
                   (big_cm_cycle(-15, -20), 1),
                   (small_cm_cycle(-15, -60), 1), (small_cm_cycle(-3, -12), 1)]:
        norm = cycle_norm_integer(cyc, m, CTX)
        n = math.isqrt(math.isqrt(norm)) if cyc.power == 4 else norm
        assert n ** cyc.power == norm
        x, err, scale = cycle_log_norm(cyc, m, CTX.with_bits(80))
        unit = Fraction(2) ** -scale
        assert abs(x * unit - n) <= err * unit
        assert 0 < err and err << 80 < x


@pytest.mark.parametrize("real", [True, False])
def test_repeated_factor_cuts_counted_per_use(monkeypatch, real):
    # a factor that loses almost 2^(1 - W) to its cut, used 1000 times:
    # the product drifts by about 1000 2^(1 - W), which the bound must cover
    ctx = CTX.with_bits(80)
    width = ctx.mantissa_bits + numerics.GUARD_BITS
    x = (1 << width + 40) - 1
    value = modular.ModPolyValue(x, 0 if real else x, 7, 1, 1, width, ())
    pair = big_cm_cycle(-3, -4).pairs[0]
    cycle = types.SimpleNamespace(orbit_counts=[(pair, real, 1000)])
    monkeypatch.setattr(cmcycles, "modpoly_eval", lambda m, z1, z2, ctx: value)
    man, err, scale = cycle_log_norm(cycle, 1, ctx)
    true = (Fraction(x, 1 << 7) ** (1 if real else 2) * (1 if real else 2)) ** 1000
    got = Fraction(man) / Fraction(2) ** scale
    assert abs(got - true) > true / 2 ** width  # the cuts do drift it
    assert abs(got - true) <= err / Fraction(2) ** scale


def test_norms_and_classpoly_certified_on_integers_alone(monkeypatch):
    # with the j-values cached, the phi_m products, the cycle product, its
    # bound and the recognition of norms and class-polynomial coefficients
    # run without mpmath
    class NoMpmath:
        def __getattr__(self, name):
            raise AssertionError(f"mpmath.{name} used")

    cycles = [(big_cm_cycle(-23, -24), 4), (big_cm_cycle(-7, -8), 3),
              (small_cm_cycle(-15, -60), 1)]
    want = [cycle_norm_integer(cyc, m, CTX) for cyc, m in cycles], classpoly(-23, CTX)
    monkeypatch.setattr(modular, "mp", NoMpmath())
    monkeypatch.setattr(numerics, "mp", NoMpmath())
    got = [cycle_norm_integer(cyc, m, CTX) for cyc, m in cycles], classpoly(-23, CTX)
    assert got == want


def test_log_norm_error_bound_does_not_underflow():
    x, err, _ = cycle_log_norm(big_cm_cycle(-15, -23), 4, CTX.with_bits(2000))
    assert 0 < err and err << 1900 < x


def _prime_powers(n: int) -> dict[int, int]:
    """{p: e} with n = prod p^e, by trial division."""
    out, p = {}, 2
    while n > 1:
        if p * p > n:
            p = n
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    return out


def _gz_k1_exponents(d1: int, d2: int, m: int) -> dict[int, int]:
    """e_p with F_1(m) = sum of e_p log p: F_1(m) = sum over q | m of
    psi(q) GZ_1(m/q), and GZ_1(s) = sum over x^2 < s^2 D, x = s^2 D (mod 2),
    of sum over n n' = R of epsilon(n') log n, R = (s^2 D - x^2)/4, D = d1 d2.

    With R = prod p_i^(e_i) and epsilon_i = epsilon(p_i), the inner sum's
    exponent of p_i is T_i prod over j != i of S_j, S_j = sum over
    b <= e_j of epsilon_j^b and T_i = sum over a <= e_i of
    a epsilon_i^(e_i - a): n runs over prod p_j^(a_j), n' over the
    complementary powers, and log n = sum a_i log p_i."""
    exponents: dict[int, int] = {}
    for q in range(1, m + 1):
        psi = gz_psi(d1, d2, q) if m % q == 0 else 0
        if not psi:
            continue
        big = (m // q) ** 2 * d1 * d2
        for x in range(-math.isqrt(big), math.isqrt(big) + 1):
            if x * x >= big or (big - x) % 2:
                continue
            powers = _prime_powers((big - x * x) // 4)
            eps = {p: gz_epsilon(d1, d2, p) for p in powers}
            sums = {p: sum(eps[p] ** b for b in range(e + 1)) for p, e in powers.items()}
            for p, e in powers.items():
                t = sum(a * eps[p] ** (e - a) for a in range(e + 1))
                rest = math.prod(sums[r] for r in powers if r != p)
                exponents[p] = exponents.get(p, 0) + psi * t * rest
    return exponents


def test_gross_zagier_k1_exact_norms():
    # Gross-Zagier, On singular moduli: N^2 = n0^8 = prod p^(w1 w2 e_p) with
    # F_1(m) = sum e_p log p, w = 6, 4, 2 for d = -3, -4 and the rest, on
    # every ordered coprime pair of distinct fundamental discriminants with
    # |d| <= 50 and m <= 4 (the acceptance grid in both orders), exactly
    def units(d):
        return {-3: 6, -4: 4}.get(d, 2)

    ds = fundamental_discriminants(50)
    instances = [(d1, d2, m) for d1 in ds for d2 in ds
                 if d1 != d2 and math.gcd(d1, d2) == 1 for m in range(1, 5)]
    assert len(instances) == 784
    for d1, d2, m in instances:
        want = 1
        for p, e in _gz_k1_exponents(d1, d2, m).items():
            assert units(d1) * units(d2) * e >= 0, (d1, d2, m, p, e)
            want *= p ** (units(d1) * units(d2) * e)
        assert cycle_norm_integer(big_cm_cycle(d1, d2), m, CTX) ** 2 == want, (d1, d2, m)


def test_multiplicity_not_divided_by_the_power_is_refused():
    # a big cycle whose pairs have multiplicity 1 is not a product n0^4
    cyc = big_cm_cycle(-3, -4)
    bad = CMCycle(kind=cyc.kind, d1=cyc.d1, d2=cyc.d2,
                  pairs=tuple(CyclePair(p.z1, p.z2, 1) for p in cyc.pairs))
    with pytest.raises(CycleError, match="not a multiple of 4"):
        cycle_norm_integer(bad, 2, CTX)


def _full_multiplicity_norm(cycle, m):
    """Round the product over every pair of |phi_m|^multiplicity, each a
    modpoly_eval value, at log2 N + 64 bits."""

    def product(ctx):
        with ctx.workprec():
            out = mp.mpf(1)
            for pair in cycle.pairs:
                out *= abs(modpoly_eval(m, pair.z1, pair.z2, ctx).value) ** pair.multiplicity
            return out

    probe = product(CTX.with_bits(96))
    ctx = CTX.with_bits(int(mp.log(probe, 2)) + 64)
    value = product(ctx)
    with ctx.workprec():
        return int(mp.nint(value))


@pytest.mark.parametrize("d1,d2,m", [(-7, -8, 2), (-15, -23, 1), (-15, -20, 1),
                                     (-3, -12, 1), (-15, -60, 1), (-4, -16, 3)])
def test_grid_product_to_the_fourth_is_the_cycle_norm(d1, d2, m):
    cyc = build_cycle(d1, d2)
    if cycle_case(d1, d2) == "small":
        assert cyc.kind == "small" and cyc.power == 1
    else:
        assert cyc.kind == ("big" if math.gcd(d1, d2) == 1 else "diagnostic")
        assert cyc.power == 4
    assert cycle_norm_integer(cyc, m, CTX) == _full_multiplicity_norm(cyc, m)


def test_big_cycle_certified_at_a_quarter_of_the_bits(monkeypatch):
    seen = []
    original = cmcycles.modpoly_eval

    def recording(m, z1, z2, ctx):
        seen.append(ctx.mantissa_bits)
        return original(m, z1, z2, ctx)

    monkeypatch.setattr(cmcycles, "modpoly_eval", recording)
    n = cycle_norm_integer(big_cm_cycle(-23, -24), 4, CTX)
    assert max(seen) <= n.bit_length() // 4 + 64 + 16


def _unfolded(cycle) -> dict:
    """Multiplicity per (C1, C2) of the cycle before folding: the
    Cl(d1) x Cl(d2) grid at 4 each, or the projections of each class of
    Cl(d') and their inverse pairs at 1 each."""
    if cycle.kind != "small":
        return {(f1, f2): 4 for f1 in enumerate_reduced(cycle.d1.d).reduced_forms
                for f2 in enumerate_reduced(cycle.d2.d).reduced_forms}
    grid: dict = {}
    dp = common_order_discriminant(cycle.d1, cycle.d2)
    for sigma in enumerate_reduced(dp).reduced_forms:
        c1, c2 = project_class(sigma, cycle.d1), project_class(sigma, cycle.d2)
        for pair in ((c1, c2), (inverse(c1), inverse(c2))):
            grid[pair] = grid.get(pair, 0) + 1
    return grid


@pytest.mark.parametrize("cycle", [
    big_cm_cycle(-23, -31), big_cm_cycle(-15, -23), big_cm_cycle(-3, -15),
    small_cm_cycle(-23, -23), small_cm_cycle(-15, -60), small_cm_cycle(-3, -12),
], ids=lambda c: f"{c.kind}{c.d1.d}{c.d2.d}")
def test_conjugate_orbits_fold_inverse_pairs(cycle):
    # a cycle holds one pair per orbit of (C1, C2) -> (C1^-1, C2^-1): the
    # one of smaller key, in ascending key order, with the orbit's summed
    # multiplicity; the group order is the unfolded cycle's
    grid = _unfolded(cycle)
    orbits: dict = {}
    for f1, f2 in sorted(grid):
        twin = (inverse(f1), inverse(f2))
        rep = twin if twin in orbits else (f1, f2)
        orbits[rep] = orbits.get(rep, 0) + grid[f1, f2]
    want = [(f1, f2, n) for (f1, f2), n in orbits.items()]
    for cyc in (cycle, build_cycle(cycle.d1.d, cycle.d2.d)):
        assert [(p.z1, p.z2, p.multiplicity) for p in cyc.pairs] == want
        keys = [p.key for p in cyc.pairs]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert cyc.group_order == sum(grid.values())


def test_conjugate_orbits_count():
    # Cl(-23) x Cl(-31), both cyclic of order 3: (1, 1), (1, x), (x, 1),
    # (x, y) and (x, y^-1) up to inversion
    assert len(big_cm_cycle(-23, -31).pairs) == 5
