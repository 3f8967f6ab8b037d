import math
from fractions import Fraction

import mpmath as mp
import pytest

from singmod import cmcycles, modular
from singmod.numerics import PrecisionContext
from singmod.quadforms import enumerate_reduced, inverse
from singmod.modular import classpoly, hecke_cosets
from singmod.verify import fundamental_discriminants, sweep_instances
from singmod.cmcycles import (
    CMCycle,
    CycleError,
    SingularCycleError,
    big_cm_cycle,
    build_cycle,
    common_order_discriminant,
    conjugate_orbits,
    cycle_case,
    cycle_log_norm,
    cycle_norm_integer,
    small_cm_cycle,
)

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
    cyc = big_cm_cycle(-15, -23)
    assert cyc.kind == "big" and cyc.is_exact
    assert len(cyc.pairs) == 2 * 3
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
    # integer, and the bound must still cover its distance to the exact norm
    for cyc, m in [(big_cm_cycle(-15, -23), 2), (big_cm_cycle(-7, -8), 3),
                   (small_cm_cycle(-15, -60), 1), (small_cm_cycle(-3, -12), 1)]:
        n = cycle_norm_integer(cyc, m, CTX)
        norm = cycle_log_norm(cyc, m, CTX.with_bits(80))
        with mp.workprec(2 * n.bit_length() + 64):
            assert abs(norm.product - n) <= norm.product * norm.rel_error
        assert 0 < norm.rel_error < mp.mpf(2) ** -80


def test_log_norm_consistent_with_integer():
    cyc = big_cm_cycle(-15, -23)
    n = cycle_norm_integer(cyc, 1, CTX)
    log = cycle_log_norm(cyc, 1, CTX)
    assert float(log) == pytest.approx(math.log(n), rel=1e-12)
    assert log.error_bound < 1e-12


def test_log_norm_error_bound_does_not_underflow():
    log = cycle_log_norm(big_cm_cycle(-15, -23), 4, CTX.with_bits(2000))
    assert 0 < log.error_bound < mp.mpf(2) ** -1900


def _full_multiplicity_norm(cycle, m):
    """Round exp(cycle_log_norm) of the multiplicity-4 cycle at log2 N + 64 bits."""
    probe = cycle_log_norm(cycle, m, CTX.with_bits(96))
    bits = int(float(probe) / math.log(2)) + 64
    ctx = CTX.with_bits(bits)
    log = cycle_log_norm(cycle, m, ctx)
    with ctx.workprec():
        return int(mp.nint(mp.exp(log.value)))


@pytest.mark.parametrize("d1,d2,m", [(-7, -8, 2), (-15, -23, 1), (-15, -20, 1)])
def test_grid_product_to_the_fourth_is_the_cycle_norm(d1, d2, m):
    cyc = big_cm_cycle(d1, d2)
    assert cyc.kind == ("big" if math.gcd(d1, d2) == 1 else "diagnostic")
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


def _inverse_key(pair):
    f1, f2 = inverse(pair.z1), inverse(pair.z2)
    return (f1.a, f1.b, f2.a, f2.b)


@pytest.mark.parametrize("cycle", [
    big_cm_cycle(-23, -31), big_cm_cycle(-15, -23), big_cm_cycle(-3, -15),
    small_cm_cycle(-23, -23), small_cm_cycle(-15, -60), small_cm_cycle(-3, -12),
], ids=lambda c: f"{c.kind}{c.d1.d}{c.d2.d}")
def test_conjugate_orbits_fold_inverse_pairs(cycle):
    orbits = conjugate_orbits(cycle.pairs)
    keys = [p.key for p in orbits]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert (sum(p.multiplicity for p in orbits)
            == sum(p.multiplicity for p in cycle.pairs))
    # every pair and its inverse land in one orbit, named by the smaller key
    present = {p.key: p for p in cycle.pairs}
    by_key = {p.key: p for p in orbits}
    for pair in cycle.pairs:
        twin = _inverse_key(pair)
        rep = min(pair.key, twin) if twin in present else pair.key
        assert rep in by_key
        members = {pair.key, twin} if twin in present else {pair.key}
        assert by_key[rep].multiplicity == sum(present[k].multiplicity for k in members)


def test_conjugate_orbits_count():
    # Cl(-23) x Cl(-31), both cyclic of order 3: (1, 1), (1, x), (x, 1),
    # (x, y) and (x, y^-1) up to inversion
    assert len(conjugate_orbits(big_cm_cycle(-23, -31).pairs)) == 5
