import math
import types

import mpmath as mp
import pytest

from singmod import greens
from singmod.numerics import PrecisionContext, _q_int, _q_table, legendre_P, legendre_Q
from singmod.quadforms import QuadForm, enumerate_reduced, inverse
from singmod.modular import (_bottom_rows, coset_apply, cosh_translates, fd_reduce,
                             hecke_cosets, j_eval, modpoly_eval, y1_distance)
from singmod.cmcycles import big_cm_cycle, build_cycle
from singmod.verify import fundamental_discriminants
from singmod.greens import (
    DEFAULT_GK_TAIL,
    G_k_m,
    G_ks_m_cycle,
    G_s_sum,
    SingularityError,
    TailBudgetError,
    _lattice_sums,
    _q_decay_const,
    class_pair_key,
    class_pair_weights,
    cosh_dist,
    g_s,
    g_s_truncated,
    gamma_orbit,
    graph_distance,
    tm_count,
)

from gross_zagier import gz_epsilon, gz_psi

CTX = PrecisionContext()

# generic, Gamma-inequivalent base points used throughout
Z1 = 0.3 + 1.1j
Z2 = 0.21 + 2.3j


def test_cosh_dist():
    assert cosh_dist(1j, 1j) == pytest.approx(1.0)
    assert cosh_dist(1j, 2j) == pytest.approx(1.25)
    with pytest.raises(ValueError):
        cosh_dist(1j, 1 - 1j)


def test_g_s_at_cm_forms_is_the_one_term_sum():
    # CM points are built at the context precision, whatever the caller's:
    # cosh d between the points of forms (a1, b1, c1), (a2, b2, c2) is
    # exactly (2 a2 c1 + 2 a1 c2 - b1 b2) / sqrt(d1 d2)
    for f1, f2 in ((QuadForm(1, 1, 1), QuadForm(2, 1, 3)),
                   (QuadForm(1, 0, 1), QuadForm(3, 2, 5)),
                   (QuadForm(2, -1, 3), QuadForm(1, 1, 6))):
        for s in (2, 3, 1.5):
            value = g_s(s, f1, f2, CTX)
            assert value == g_s_truncated(s, f1, f2, ((1, 0, 0, 1),), CTX)
            with CTX.workprec():
                t = mp.mpf(2 * f2.a * f1.c + 2 * f1.a * f2.c - f1.b * f2.b) / \
                    mp.sqrt(f1.disc * f2.disc)
                assert abs(value + 2 * legendre_Q(s, t, CTX)) <= 1e-60 * abs(value)


def test_g_s_sign_and_singularity():
    assert g_s(2, 1j, 2j, CTX) < 0
    assert g_s(1.3, Z1, Z2, CTX) < 0
    with pytest.raises(SingularityError):
        g_s(2, 1j, 1j, CTX)


def test_G_s_sum_symmetry_and_invariance():
    a = G_s_sum(3, Z1, Z2, tail_target=1e-6)
    b = G_s_sum(3, Z2, Z1, tail_target=1e-6)
    assert a.value == pytest.approx(b.value, abs=a.tail_bound + b.tail_bound)
    # full-group average is Gamma-invariant in each slot
    c = G_s_sum(3, Z1, Z2 + 1, tail_target=1e-6)
    d = G_s_sum(3, Z1, -1 / Z2, tail_target=1e-6)
    for other in (c, d):
        assert other.value == pytest.approx(
            a.value, abs=a.tail_bound + other.tail_bound)


def test_G_s_sum_symmetric_from_either_point():
    # the walk is centred at the higher reduced point; swapping the points or
    # moving the lower one by the group must not change the sum beyond tails
    low, high = 0.31 + 0.17j, -0.12 + 1.9j
    for s in (3, 5):
        a = G_s_sum(s, low, high, tail_target=1e-6)
        b = G_s_sum(s, high, low, tail_target=1e-6)
        assert a.value == pytest.approx(b.value, abs=a.tail_bound + b.tail_bound)
        moved = (2 * low + 1) / (low + 1)  # gamma = (2, 1; 1, 1)
        c = G_s_sum(s, moved, high, tail_target=1e-6)
        assert c.value == pytest.approx(a.value, abs=a.tail_bound + c.tail_bound)


def test_G_s_sum_cutoff_independent_of_representative():
    # the cutoff floor is taken from the reduced points, so a far
    # representative of the same orbit walks the same terms
    z = -0.3 + 1.5j
    plain = G_s_sum(5, 0.1 + 1.2j, z, tail_target=0.1)
    moved = G_s_sum(5, 0.1 + 1.2j, (7 * z + 3) / (2 * z + 1), tail_target=0.1)
    assert moved.cosh_cutoff == plain.cosh_cutoff
    assert moved.terms == plain.terms
    assert moved.value == pytest.approx(plain.value, abs=1e-12)


def test_G_s_sum_tail_honest_under_doubling():
    coarse = G_s_sum(3, Z1, Z2, tail_target=1e-4)
    fine = G_s_sum(3, Z1, Z2, tail_target=1e-8)
    # omitted terms are negative: coarse >= fine, within the certified tail
    assert fine.value <= coarse.value + 1e-12
    assert coarse.value - fine.value <= coarse.tail_bound


def test_G_s_sum_refusals():
    # lattice sums take integer s >= 2 only
    for s in (1.0, 1.5, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            G_s_sum(s, Z1, Z2, tail_target=1e-6)
    with pytest.raises(TailBudgetError):
        G_s_sum(2, Z1, Z2, tail_target=1e-25)
    with pytest.raises(SingularityError):
        G_s_sum(3, 1j, 1j + 1, tail_target=1e-4)


def test_G_1_is_log_j_difference():
    expect = 2 * mp.log(abs(j_eval(Z1, CTX).value - j_eval(Z2, CTX).value))
    assert float(G_k_m(1, 1, Z1, Z2, CTX).value) == pytest.approx(float(expect), rel=1e-12)
    with pytest.raises(SingularityError):
        G_k_m(1, 1, 1j, -1 / 1j, CTX)


@pytest.mark.parametrize("target", [math.nan, 0.0, -1.0])
def test_bad_tail_targets_are_refused(target):
    # a NaN budget never stops the cutoff loop; zero or negative ones divide
    # by zero or compare nonsense, so every entry refuses them first
    pairs = build_cycle(-3, -4).pairs
    for call in (lambda: G_s_sum(3, Z1, Z2, tail_target=target),
                 lambda: G_k_m(3, 2, Z1, Z2, CTX, tail_target=target),
                 lambda: G_ks_m_cycle((3, 5, 7), 1, pairs, tail_target=target),
                 lambda: _lattice_sums((3,), Z1, Z2, target)):
        with pytest.raises(ValueError, match="tail target must be positive"):
            call()


def test_G_k_m_k1_matches_modpoly_log():
    for m in (1, 2, 3):
        v = G_k_m(1, m, Z1, Z2, CTX)
        expect = 2 * modpoly_eval(m, Z1, Z2, CTX).log_abs()
        assert float(v.value) == pytest.approx(float(expect), rel=1e-12)
        assert v.cosh_cutoff == math.inf


def test_G_k_m_negative_at_distant_pairs():
    # each gamma-term is negative, so the whole average is
    for k in (3, 5, 7):
        v = G_k_m(k, 2, Z1, Z2, CTX)
        assert v.value < 0
        assert v.tail_bound <= DEFAULT_GK_TAIL


def test_G_k_m_symmetry():
    for k in (3, 5):
        a = G_k_m(k, 3, Z1, Z2, CTX, tail_target=1e-7)
        b = G_k_m(k, 3, Z2, Z1, CTX, tail_target=1e-7)
        assert a.value == pytest.approx(
            b.value, abs=2 * (a.tail_bound + b.tail_bound))


def test_G_k_m_matches_shared_walk_per_k():
    # one shared orbit enumeration per coset gives each k exactly its own
    # sum, which G_ks_m_cycle relies on
    for m in (1, 2, 4):
        share = 1e-4 / len(hecke_cosets(m))
        walks = [_lattice_sums((3, 5, 7), Z1, coset_apply(c, Z2), share)
                 for c in hecke_cosets(m)]
        for i, k in enumerate((3, 5, 7)):
            alone = G_k_m(k, m, Z1, Z2, CTX, tail_target=1e-4)
            parts = [walk[i] for walk in walks]
            assert alone.value == math.fsum(p.value for p in parts)
            assert alone.tail_bound == math.fsum(p.tail_bound for p in parts)
            assert alone.cosh_cutoff == max(p.cosh_cutoff for p in parts)
            assert alone.terms == sum(p.terms for p in parts)
    with pytest.raises(ValueError):
        G_ks_m_cycle((1, 3), 2, build_cycle(-3, -4).pairs)


def _fixed_cutoff_sums(z1: complex, z2: complex, t_cut: float):
    """Term count and the k = 3, 5, 7 sums of one walk at a fixed cutoff."""
    chs = sorted(cosh_translates(fd_reduce(z1)[0], fd_reduce(z2)[0], t_cut))
    return len(chs), [math.fsum(-2.0 * _q_int(n, ch) for ch in chs) for n in (2, 4, 6)]


@pytest.mark.parametrize("d1, d2, m", [(-23, -24, 4), (-20, -23, 2), (-4, -7, 3)])
def test_class_pair_grouping_is_exact(monkeypatch, d1, d2, m):
    # at one common cutoff, one weighted walk per key sums to exactly the
    # walks over every (pair, coset); (-4, -7) is a single self-conjugate pair
    pairs = build_cycle(d1, d2).pairs
    cosets = hecke_cosets(m)
    weights = class_pair_weights(pairs, m)
    t_cut = 60.0
    separate_terms, separate = 0, [[], [], []]
    for pair in pairs:
        for coset in cosets:
            n, sums = _fixed_cutoff_sums(pair.z1.approx(),
                                         coset_apply(coset, pair.z2).approx(), t_cut)
            separate_terms += pair.multiplicity * n
            for acc, v in zip(separate, sums):
                acc.append(pair.multiplicity * v)
    grouped_terms, grouped = 0, [[], [], []]
    for (f1, f2), w in weights.items():
        n, sums = _fixed_cutoff_sums(f1.approx(), f2.approx(), t_cut)
        grouped_terms += w * n
        for acc, v in zip(grouped, sums):
            acc.append(w * v)
    assert grouped_terms == separate_terms
    for a, b in zip(grouped, separate):
        assert math.fsum(a) == pytest.approx(math.fsum(b), rel=1e-13, abs=0.0)
    assert sum(weights.values()) == sum(p.multiplicity for p in pairs) * len(cosets)

    calls = []

    def spy(*args):
        calls.append(args)
        return _lattice_sums(*args)

    monkeypatch.setattr(greens, "_lattice_sums", spy)
    total = G_ks_m_cycle((3, 5, 7), m, pairs, tail_target=1e-3)
    assert len(calls) == len(weights) < len(pairs) * len(cosets)
    assert all(v.value < 0 and v.tail_bound <= 1e-3 * sum(weights.values()) / len(cosets)
               for v in total)


def test_class_pair_key_separates_classes():
    # two pairs of classes share a key exactly when swap and b -> -b on both
    # forms carry one to the other
    forms = [f for d in (-23, -92, -207, -15, -60)
             for f in enumerate_reduced(d).reduced_forms]
    groups = {}
    for f1 in forms:
        for f2 in forms:
            groups.setdefault(class_pair_key(f1, f2), set()).add((f1, f2))
    for key, members in groups.items():
        f1, f2 = key
        g1, g2 = inverse(f1), inverse(f2)
        assert members == {(f1, f2), (f2, f1), (g1, g2), (g2, g1)}


def _chain_grid_keys(m: int):
    ds = fundamental_discriminants(24)
    keys = set()
    for i, d1 in enumerate(ds):
        for d2 in ds[i + 1:]:
            if math.gcd(d1, d2) == 1:
                keys |= set(class_pair_weights(build_cycle(d1, d2).pairs, m))
    return sorted(keys)


@pytest.mark.parametrize("m", [1, 4])
def test_tail_honest_on_chain_grid_walks(m):
    # every walk of the chain-bound grid (|d| <= 24, tail 1e-3): the claimed
    # bound covers the distance to a 400x tighter sum
    share = 1e-3 / len(hecke_cosets(m))
    for f1, f2 in _chain_grid_keys(m):
        c1, c2 = f1.approx(), f2.approx()
        got = _lattice_sums((3, 5), c1, c2, share)
        deep = _lattice_sums((3, 5), c1, c2, share / 400)
        for g, d in zip(got, deep):
            assert g.tail_bound <= share
            assert g.value - d.value <= g.tail_bound, (f1, f2, g, d)


@pytest.fixture
def cold_caches():
    """Start with no orbit rows or Bessel-I columns shared from earlier walks."""
    clears = (greens._orbit_rows.clear, greens._i_column.cache_clear)
    for clear in clears:
        clear()
    yield
    for clear in clears:
        clear()


def _lower_point(c1: complex, c2: complex) -> complex:
    """The reduced point of a walk whose rows are enumerated: the lower one."""
    z1, z2 = fd_reduce(c1)[0], fd_reduce(c2)[0]
    return z2 if z2.imag <= z1.imag else z1


def _spy_on_enumeration(monkeypatch) -> list:
    """The argument tuples of every _bottom_rows call the lattice sums make."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _bottom_rows(*args)

    monkeypatch.setattr(greens, "_bottom_rows", spy)
    return calls


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_chain_grid_walks_enumerate_once(monkeypatch, cold_caches, m):
    # s = 3 enumerates the rows its predicted level needs, and s = 5, 7 take
    # coarser levels; the rows are shared by every walk with the same lower
    # point, which enumerates again only for a floor below every floor it
    # was enumerated at.  So from cold caches the chain grid enumerates once
    # per lower point plus once per such deeper floor, at most once a walk
    calls = _spy_on_enumeration(monkeypatch)
    rows, asked = greens._orbit_rows, []

    def spy_rows(z2, floor):
        asked.append((z2, floor))
        return rows(z2, floor)

    monkeypatch.setattr(greens, "_orbit_rows", spy_rows)
    share = 1e-3 / len(hecke_cosets(m))
    keys = _chain_grid_keys(m)
    deepest, expect = {}, []
    for f1, f2 in keys:
        before = len(calls)
        del asked[:]
        _lattice_sums((3, 5, 7), f1.approx(), f2.approx(), share)
        assert len(calls) - before <= 1
        for z2, floor in asked:
            assert z2 == _lower_point(f1.approx(), f2.approx())
            if floor < deepest.get(z2, math.inf):
                deepest[z2] = floor
                expect.append((z2, floor))
    assert calls == expect
    assert len(deepest) < len(calls) < len(keys)


def test_hopeless_budget_refused_before_enumerating(monkeypatch, cold_caches):
    # the rounding floor is checked on the Eisenstein zero mode, before any
    # row is enumerated
    calls = _spy_on_enumeration(monkeypatch)
    with pytest.raises(TailBudgetError):
        G_s_sum(2, Z1, Z2, tail_target=1e-25)
    assert calls == []


def test_tail_budget_far_below_the_floor_is_refused():
    # a budget of 1e-300 is refused as out of reach; no power of the cutoff
    # is formed, so nothing overflows
    for s in (2, 3, 7):
        with pytest.raises(TailBudgetError, match="rounding floor"):
            G_s_sum(s, 1j, 2j, tail_target=1e-300)


def _coarse_start(monkeypatch):
    """Make every level prediction return its start level, the coarsest."""
    predict = greens._predicted_level

    def coarse(n, y1, eis, rest_err, budget, level):
        return predict(n, y1, eis, rest_err, math.inf, level)

    monkeypatch.setattr(greens, "_predicted_level", coarse)


def _fresh_rows(z2: complex, floor: float) -> list:
    """(yw, wx0) of every bottom row of z2 at height >= floor, highest first,
    from an enumeration at that floor."""
    return sorted(((yw, wx0) for _, _, _, wx0, yw in _bottom_rows(z2, floor)),
                  reverse=True)


def test_walks_do_not_depend_on_shared_caches(cold_caches):
    # one walk cold, after other centres at shallower and deeper floors have
    # filled its lower point's rows (and the Bessel-I columns), and cold
    # again: the values are bit-identical
    def walk():
        return _lattice_sums((3, 5, 7), Z2, Z1, 1e-4)

    cold = walk()
    floor = greens._orbit_rows.points[Z1][0]
    greens._orbit_rows.clear()
    for centre, target in ((0.1 + 1.5j, 1e-3), (0.4 + 4.0j, 1e-7), (-0.2 + 1.2j, 1e-8)):
        _lattice_sums((3, 5, 7), centre, Z1, target)
    assert greens._orbit_rows.points[Z1][0] < floor
    assert walk() == cold
    greens._orbit_rows.clear()
    greens._i_column.cache_clear()
    assert walk() == cold
    # rows served from a deeper enumeration are those of a fresh one
    greens._orbit_rows(Z1, floor / 16)
    for y_cut in (floor, 2.0 * floor, 0.3, 1.0, Z1.imag, 2.0):
        assert greens._orbit_rows(Z1, y_cut) == _fresh_rows(Z1, y_cut)


def test_orbit_row_cache_is_bounded():
    # least recently used points go while more than the limit is held; the
    # newest stays even when it alone passes it
    rows = greens._OrbitRows(40)
    points = [complex(x, y) for x in (-0.4, 0.0, 0.3) for y in (1.0, 1.3)]
    for z2 in points + points[:2]:
        assert rows(z2, 0.2) == _fresh_rows(z2, 0.2)
        held = sum(len(entry[2]) + 1 for entry in rows.points.values())
        assert rows.held == held <= 40
        assert list(rows.points)[-1] == z2
    assert len(_fresh_rows(points[0], 0.01)) > 40
    assert rows(points[0], 0.01) == _fresh_rows(points[0], 0.01)
    assert list(rows.points) == [points[0]]


def test_cutoff_grows_when_the_real_count_fails(monkeypatch, cold_caches):
    # a prediction that starts too coarse fails the check with the real
    # rest, so the loop deepens level by level, enumerating again, and lands
    # on the level the good prediction reaches by coarsening: the omitted
    # bound only falls as the level deepens, so the coarsest level that
    # meets it is one level, whichever side it is reached from
    target = 1e-4
    plain = _lattice_sums((3, 5), Z1, Z2, target)
    deep = _lattice_sums((3, 5), Z1, Z2, target / 400)
    greens._orbit_rows.clear()
    calls = _spy_on_enumeration(monkeypatch)
    _coarse_start(monkeypatch)
    got = _lattice_sums((3, 5), Z1, Z2, target)
    assert len(calls) >= 2
    assert got == plain
    for g, d in zip(got, deep):
        assert g.tail_bound <= target
        assert g.value - d.value <= g.tail_bound, (g, d)


def test_growth_refused_before_enumerating_past_the_cap(monkeypatch, cold_caches):
    # the deepening step predicts again, so a row cap the next level would
    # pass is refused there, after the one enumeration at the start
    calls = _spy_on_enumeration(monkeypatch)
    _coarse_start(monkeypatch)
    _lattice_sums((3,), Z1, Z2, 1e-4)
    first = calls[0]
    y1 = 2.0 * first[1]  # the start, level 1, enumerates down to y1/2
    calls.clear()
    greens._orbit_rows.clear()
    # the row count predicted at level 1 is allowed, that of level 2 is not
    monkeypatch.setattr(greens, "_MAX_ROWS", 3.0 / (math.pi * math.ldexp(y1, -1)))
    with pytest.raises(TailBudgetError, match="rows"):
        _lattice_sums((3,), Z1, Z2, 1e-4)
    assert calls == [first]


def _c_inf(s: int) -> float:
    """lim t^s Q_{s-1}(t) = sqrt(pi) Gamma(s) / (Gamma(s + 1/2) 2^s)."""
    return math.sqrt(math.pi) * math.gamma(s) / (math.gamma(s + 0.5) * 2.0 ** s)


def test_q_decay_const_integer_route_matches_legenq():
    # integer s takes the float Q route; the general evaluator is the oracle
    for s in (2, 3, 5, 7):
        c_inf = _c_inf(s)
        for t in (8.0, 100.0, 1e4):
            with mp.workprec(53):
                q = float(mp.legenq(s - 1, 0, mp.mpf(t), type=3).real)
            expect = 2.0 * max(c_inf, q * t ** s)
            assert _q_decay_const(s, t) == pytest.approx(expect, rel=1e-12)


def test_q_decay_const_falls_to_its_limit():
    # t^s Q_{s-1}(t) = c_inf F(1/t^2) with F's coefficients positive, so the
    # tail constant never drops below 2 c_inf and never rises with t
    for s in (2, 3, 5, 7):
        _, _, k4, _ = _q_table(s - 1)
        ts = sorted((8.0, (2 / k4) ** -0.5, 64.0, 1e4))
        qs = [_q_decay_const(s, t) for t in ts]
        assert all(q >= 2.0 * _c_inf(s) for q in qs), (s, qs)
        assert all(a >= b for a, b in zip(qs, qs[1:])), (s, ts, qs)


# ---------------------------------------------------------------------------
# the row Fourier expansion: kernels against exact oracles


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6, 7])
def test_eisenstein_matches_closed_forms(s):
    # E(i, s) = 2 zeta(s) beta(s)/zeta(2s) and
    # E(rho, s) = 3 (sqrt3/2)^s zeta(s) L(s, chi_-3)/zeta(2s): the lattice
    # sums over Z[i] and Z[rho], divided by the non-coprime multiples
    with mp.workprec(80):
        at_i = 2 * mp.zeta(s) * mp.dirichlet(s, [0, 1, 0, -1]) / mp.zeta(2 * s)
        at_rho = (3 * (mp.sqrt(3) / 2) ** s * mp.zeta(s) * mp.dirichlet(s, [0, 1, -1])
                  / mp.zeta(2 * s))
    for z, want in ((1j, at_i), (complex(-0.5, math.sqrt(3) / 2), at_rho)):
        value, size, tail = greens._eisenstein(s, z)
        assert value == pytest.approx(float(want), rel=1e-14, abs=0.0)
        assert tail <= 2.0 ** -56 * size


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_scaled_bessel_products_match_mpmath(n):
    # F_k = 2 pi sqrt(y1 y) I_nu(2 pi k y) K_nu(2 pi k y1), nu = n + 1/2, is
    # formed from the scaled factors and e^(-2 pi k (y1 - y)); at Im 9.8 and
    # k = 20 the unscaled I overflows a float (e^1194), the product does not
    y1 = 9.8
    with mp.workprec(100):
        nu = n + mp.mpf(1) / 2
        for y in (1e-3, 0.07, 0.6, 2.5, 9.5):
            for k in range(1, 21):
                a, b = math.tau * k * y, math.tau * k * y1
                ia, kb = greens._i_scaled(n, a), greens._k_scaled(n, b)
                want_i = mp.sqrt(2 * mp.pi * a) * mp.exp(-a) * mp.besseli(nu, a)
                want_k = mp.sqrt(2 * b / mp.pi) * mp.exp(b) * mp.besselk(nu, b)
                assert ia == pytest.approx(float(want_i), rel=1e-14, abs=0.0)
                assert kb == pytest.approx(float(want_k), rel=1e-14, abs=0.0)
                want = (2 * mp.pi * mp.sqrt(mp.mpf(y1) * y) * mp.besseli(nu, a)
                        * mp.besselk(nu, b))
                if want > 1e-300:
                    got = ia * kb * math.exp(a - b) / (2 * k)
                    assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("s", [2, 3, 5, 7])
def test_row_identity_matches_direct_sum(s):
    # sum_n Q_(s-1)(cosh d(z1, w + n)) = 2 pi/(2s-1) y1^(1-s) y^s
    #   + 2 sum_k F_k cos(2 pi k (x1 - x)), against the direct n-sum with its
    # own tail bound (whose terms fall only like n^-2s)
    tight = 1e-11 if s == 2 else 1e-14
    for y1, y, dx in ((1.1, 0.31, 0.17), (2.3, 1.1, -0.42), (9.8, 0.02, 0.5),
                      (9.8, 9.2, 0.03), (0.9, 0.6, 0.0)):
        modes, size, tail = greens._modes(s - 1, y1, y, dx, tight)
        zero = math.tau / (2 * s - 1) * y1 ** (1 - s) * y ** s
        direct, direct_tail = greens._row_direct(s, y1, y, dx, tight)
        slack = tail + direct_tail + 1e-14 * (zero + size + direct)
        assert abs(zero + modes - direct) <= slack, (y1, y, dx)
    # rows from just under _ROW_GAP = 1/20 to 1/4 below the centre, where the
    # modes fall slowest: both routes agree within their tails and the
    # rounding _lattice_sums allows (the tight budget is the one above, as the
    # n-sum at s = 2 is slow)
    for y1 in (1.0, 3.1):
        for gap, dx in ((0.03, 0.5), (0.05, 0.17), (0.08, -0.42), (0.15, 0.0),
                        (0.24, 0.31)):
            y = y1 - gap
            zero = math.tau / (2 * s - 1) * y1 ** (1 - s) * y ** s
            for budget in (1e-8, tight):
                modes, size, tail = greens._modes(s - 1, y1, y, dx, budget)
                direct, direct_tail = greens._row_direct(s, y1, y, dx, budget)
                slack = (tail + direct_tail
                         + greens._TERM_ROUNDING * (zero + size + direct))
                assert abs(zero + modes - direct) <= slack, (y1, gap, budget)


def test_near_rows_take_the_faster_route(monkeypatch):
    # _ROW_GAP = 1/20: a row 0.1 below the centre is summed by its modes, one
    # 0.02 below it in n; the identity row of z2 lies at height Im z2
    routes = []
    for name in ("_modes", "_row_direct"):
        def spy(*args, _name=name, _original=getattr(greens, name)):
            routes.append((_name, args[2]))
            return _original(*args)
        monkeypatch.setattr(greens, name, spy)
    for y2, route in ((1.0, "_modes"), (1.08, "_row_direct")):
        routes.clear()
        _lattice_sums((3,), Z1, complex(0.21, y2), 1e-3)
        assert {name for name, y in routes if y == pytest.approx(y2)} == {route}


def test_modes_past_the_rounding_allowance_are_refused():
    # the running sum of K modes is within _TERM_ROUNDING while 27 + K <= 2^11;
    # a row 1e-4 below the centre would need about 3 200 modes at s = 3
    assert greens._MAX_MODES + 27 == 2 ** 11
    with pytest.raises(TailBudgetError, match="modes"):
        greens._modes(2, 1.0, 0.9999, 0.3, 1e-12)
    greens._modes(2, 1.0, 0.99, 0.3, 1e-12)


def _gz_closed_form(d1: int, d2: int, k: int, s: int = 1) -> float:
    """sum over x^2 < s^2 D, x = s^2 D (mod 2), of P_(k-1)(x/(s sqrt D))
    times sum over n | (s^2 D - x^2)/4 of epsilon((s^2 D - x^2)/(4n)) log n,
    D = d1 d2, epsilon from d1 and d2."""
    big = s * s * d1 * d2
    total = []
    for x in range(-math.isqrt(big), math.isqrt(big) + 1):
        if x * x >= big or (big - x) % 2:
            continue
        rest = (big - x * x) // 4
        inner = math.fsum(gz_epsilon(d1, d2, rest // n) * math.log(n)
                          for n in range(2, rest + 1) if rest % n == 0)
        total.append(legendre_P(k - 1, x / math.sqrt(big)) * inner)
    return math.fsum(total)


def test_gross_zagier_m1_closed_form():
    # Gross-Zagier (m = 1): (4/(w1 w2)) sum over tau1, tau2 of G_k(tau1, tau2)
    # equals _gz_closed_form, w = 6, 4, 2 for d = -3, -4 and the rest; every
    # coprime pair of fundamental discriminants with |d| <= 23 meets it
    # within the claimed two-sided bound of its lattice sums
    def units(d):
        return {-3: 6, -4: 4}.get(d, 2)

    ds = fundamental_discriminants(23)
    pairs = [(d1, d2) for i, d1 in enumerate(ds) for d2 in ds[i + 1:]
             if math.gcd(d1, d2) == 1]
    assert len(pairs) == 31
    for d1, d2 in pairs:
        mids, halves = [[], [], []], [[], [], []]
        for f1 in enumerate_reduced(d1).reduced_forms:
            for f2 in enumerate_reduced(d2).reduced_forms:
                for i, g in enumerate(_lattice_sums((3, 5, 7), f1.approx(),
                                                    f2.approx(), 1e-8)):
                    mids[i].append(g.value - g.tail_bound / 2)
                    halves[i].append(g.tail_bound / 2)
        weight = 4 / (units(d1) * units(d2))
        for i, k in enumerate((3, 5, 7)):
            want = _gz_closed_form(d1, d2, k)
            got = weight * math.fsum(mids[i])
            assert abs(got - want) <= weight * math.fsum(halves[i]), (d1, d2, k, got, want)

def test_gross_zagier_hecke_closed_form():
    # Gross-Zagier for G_k^m, m <= 4: sum over the big cycle of G_k^m over
    # w1 w2 equals F_k(m) = sum over q | m of psi(q) _gz_closed_form at
    # s = m/q; every coprime pair of fundamental discriminants with
    # |d| <= 20 meets it within the claimed two-sided bound of G_ks_m_cycle
    def units(d):
        return {-3: 6, -4: 4}.get(d, 2)

    ds = fundamental_discriminants(20)
    pairs = [(d1, d2) for i, d1 in enumerate(ds) for d2 in ds[i + 1:]
             if math.gcd(d1, d2) == 1]
    assert len(pairs) == 23
    for d1, d2 in pairs:
        cycle = big_cm_cycle(d1, d2).pairs
        weight = 1 / (units(d1) * units(d2))
        for m in (1, 2, 3, 4):
            sums = G_ks_m_cycle((3, 5, 7), m, cycle, 1e-6)
            for k, g in zip((3, 5, 7), sums):
                want = math.fsum(gz_psi(d1, d2, q) * _gz_closed_form(d1, d2, k, m // q)
                                 for q in range(1, m + 1) if m % q == 0)
                got = weight * (g.value - g.tail_bound / 2)
                assert abs(got - want) <= weight * g.tail_bound / 2, (d1, d2, m, k, got, want)


def test_G_k_m_singular_on_graph():
    # (i, 2i) lies on the degree-2 Hecke graph
    with pytest.raises(SingularityError):
        G_k_m(3, 2, 1j, 2j, CTX)
    with pytest.raises(ValueError):
        G_k_m(4, 2, Z1, Z2, CTX)


def test_eigenfunction_property():
    # a fixed-orbit truncated sum is an exact eigenfunction with eigenvalue
    # s(1-s); finite differences of the hyperbolic Laplacian must vanish
    gammas = gamma_orbit(Z1, Z2, 200.0)
    assert len(gammas) > 5
    with CTX.workprec():
        h = mp.mpf(1) / 10 ** 6
        for s in (1.5, 2.0, 3.0):
            f = lambda x, y: g_s_truncated(
                s, mp.mpc(x, y), Z2, gammas, CTX)
            x0, y0 = mp.mpf(Z1.real), mp.mpf(Z1.imag)
            fxx = (f(x0 + h, y0) - 2 * f(x0, y0) + f(x0 - h, y0)) / h ** 2
            fyy = (f(x0, y0 + h) - 2 * f(x0, y0) + f(x0, y0 - h)) / h ** 2
            lap = -(y0 ** 2) * (fxx + fyy)
            expect = s * (1 - s) * f(x0, y0)
            assert abs(lap - expect) < 1e-6


def test_graph_distance_examples():
    # on the degree-2 graph: distance zero
    assert graph_distance(2, 1j, 2j) == pytest.approx(0.0, abs=1e-9)
    # degree 1: graph is the diagonal, distance d(z1,z2)/sqrt(2)
    expect = y1_distance(Z1, Z2) / math.sqrt(2)
    assert graph_distance(1, Z1, Z2) == pytest.approx(expect, rel=1e-12)
    assert graph_distance(1, 1j, 1j + 1) == pytest.approx(0.0, abs=1e-9)


def test_graph_distance_midpoint_identity():
    # moving z2 along a coset can only shrink or preserve the distance
    d_full = graph_distance(2, Z1, Z2)
    for coset in [(1, 0, 2), (1, 1, 2), (2, 0, 1)]:
        a, b, d = coset
        w = (a * Z2 + b) / d
        assert d_full <= y1_distance(Z1, w) / math.sqrt(2) + 1e-12


def make_cycle(pairs):
    entries = [types.SimpleNamespace(z1=p, z2=q, multiplicity=m)
               for p, q, m in pairs]
    return types.SimpleNamespace(pairs=entries)


def test_tm_count():
    cycle = make_cycle([
        (1j, 2j, 4),          # exactly on the degree-2 graph
        (Z1, Z2, 4),          # generic, well away from it
    ])
    assert tm_count(cycle, 2, 1e-6) == 4
    assert tm_count(cycle, 2, 100.0) == 8
    with pytest.raises(ValueError):
        tm_count(cycle, 2, 0.0)


def test_tm_count_threshold():
    # the (i, zeta) pair sits at a positive, known distance from the m=1 graph
    zeta = QuadForm(1, 1, 1)
    dist = graph_distance(1, QuadForm(1, 0, 1), zeta)
    assert dist > 0
    cycle = make_cycle([(QuadForm(1, 0, 1), zeta, 4)])
    assert tm_count(cycle, 1, dist * 0.9) == 0
    assert tm_count(cycle, 1, dist * 1.1) == 4
