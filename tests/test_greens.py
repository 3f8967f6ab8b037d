import math
import types

import mpmath as mp
import pytest

from singmod import greens
from singmod.numerics import PrecisionContext, _q_int, legendre_Q
from singmod.quadforms import QuadForm, enumerate_reduced, inverse
from singmod.modular import (coset_apply, cosh_translates, fd_reduce, hecke_cosets,
                             j_eval, modpoly_eval, y1_distance)
from singmod.cmcycles import build_cycle
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
    expect = 2 * mp.log(abs(j_eval(Z1, CTX) - j_eval(Z2, CTX)))
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
def test_trimmed_tail_honest_on_chain_grid_walks(m):
    # every walk of the chain-bound grid (|d| <= 24, tail 1e-3): the claimed
    # tail at the trimmed cutoff covers what a 400x tighter budget adds
    share = 1e-3 / len(hecke_cosets(m))
    for f1, f2 in _chain_grid_keys(m):
        c1, c2 = f1.approx(), f2.approx()
        got = _lattice_sums((3, 5), c1, c2, share)
        deep = _lattice_sums((3, 5), c1, c2, share / 400)
        for g, d in zip(got, deep):
            assert g.cosh_cutoff >= max(8.0, 2.0 * cosh_dist(c1, c2))
            assert g.tail_bound <= share
            assert g.value - d.value <= g.tail_bound, (f1, f2, g, d)


def test_q_decay_const_integer_route_matches_legenq():
    # integer s takes the float Q route; the general evaluator is the oracle
    for s in (3, 5, 7):
        c_inf = math.sqrt(math.pi) * math.gamma(s) / (math.gamma(s + 0.5) * 2.0 ** s)
        for t in (8.0, 100.0, 1e4):
            with mp.workprec(53):
                q = float(mp.legenq(s - 1, 0, mp.mpf(t), type=3).real)
            expect = 2.0 * max(c_inf, q * t ** s)
            assert _q_decay_const(s, t) == pytest.approx(expect, rel=1e-12)


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
