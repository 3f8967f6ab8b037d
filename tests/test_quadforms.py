import math
import random

import pytest

from singmod.modular import hecke_cosets, modpoly_eval
from singmod.numerics import PrecisionContext
from singmod.quadforms import (
    Discriminant,
    QuadForm,
    QuadFormError,
    compose,
    enumerate_reduced,
    hecke_image,
    identity_form,
    inverse,
    project_class,
    reduce_form,
)

CTX = PrecisionContext()


def valid_discs(limit):
    return [d for d in range(-3, -limit - 1, -1) if d % 4 in (0, 1)]


def oracle_class_number(d):
    """Independent reduced-form count, looping b-first unlike the library."""
    count = 0
    for b in range(-int(math.isqrt(-d // 3)) - 1, int(math.isqrt(-d // 3)) + 2):
        if (b - d) % 2:
            continue
        for a in range(max(abs(b), 1), int(math.isqrt(-d // 3)) + 1):
            if (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if c < a or (b < 0 and (c == a or abs(b) == a)):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) == 1:
                count += 1
    return count


def test_discriminant_decomposition():
    for d, d_K, f in [(-3, -3, 1), (-4, -4, 1), (-12, -3, 2), (-108, -3, 6),
                      (-16, -4, 2), (-20, -20, 1), (-75, -3, 5)]:
        disc = Discriminant.of(d)
        assert (disc.d_K, disc.f) == (d_K, f)
        assert disc.is_fundamental == (f == 1)
    for bad in (-5, -6, 0, 7):
        with pytest.raises(QuadFormError):
            Discriminant.of(bad)


def test_enumerate_reduced_examples():
    assert [tuple(f) for f in map(lambda g: (g.a, g.b, g.c),
            enumerate_reduced(-3).reduced_forms)] == [(1, 1, 1)]
    assert enumerate_reduced(-4).reduced_forms == (QuadForm(1, 0, 1),)
    g23 = enumerate_reduced(-23)
    assert g23.h == 3
    assert set(g23.reduced_forms) == {QuadForm(1, 1, 6), QuadForm(2, 1, 3),
                                      QuadForm(2, -1, 3)}


def test_class_numbers_match_oracle():
    for d in valid_discs(3000):
        assert enumerate_reduced(d).h == oracle_class_number(d), d


def test_reduce_examples():
    assert reduce_form(QuadForm(1, 1, 1)) == QuadForm(1, 1, 1)
    assert reduce_form(QuadForm(6, 1, 1)) == QuadForm(1, 1, 6)
    assert reduce_form(QuadForm(3, -1, 2)) == QuadForm(2, 1, 3)
    with pytest.raises(QuadFormError):
        reduce_form(QuadForm(-1, 0, 1))


def test_reduce_is_class_invariant():
    # random SL2(Z) words must not change the reduced representative
    rng = random.Random(11)
    for d in (-23, -47, -20, -48):
        for form in enumerate_reduced(d).reduced_forms:
            a, b, c = form.a, form.b, form.c
            for _ in range(20):
                if rng.random() < 0.5:
                    n = rng.randint(-3, 3)  # T^n
                    a, b, c = a, b + 2 * n * a, a * n * n + b * n + c
                else:  # S
                    a, b, c = c, -b, a
            assert reduce_form(QuadForm(a, b, c)) == form


def test_identity_is_the_principal_form():
    # the principal form is the one reduced form with a = 1, so it sorts first
    for d in range(-3, -2000, -1):
        if d % 4 in (0, 1):
            assert enumerate_reduced(d).identity == identity_form(d)


def test_compose_group_axioms():
    for d in (-23, -20, -47, -48, -71, -108):
        group = enumerate_reduced(d)
        ident = group.identity
        forms = group.reduced_forms
        for f in forms:
            assert compose(ident, f) == f
            assert compose(f, inverse(f)) == ident
            assert inverse(inverse(f)) == f
        for f in forms:
            for g in forms:
                fg = compose(f, g)
                assert fg in forms  # closure
                assert fg == compose(g, f)  # commutativity
        for f in forms[:4]:
            for g in forms[:4]:
                for k in forms[:4]:
                    assert compose(compose(f, g), k) == compose(f, compose(g, k))


def test_compose_cl23():
    f = QuadForm(2, 1, 3)
    assert compose(f, f) == QuadForm(2, -1, 3)
    assert inverse(QuadForm(1, 1, 6)) == QuadForm(1, 1, 6)
    assert inverse(f) == QuadForm(2, -1, 3)
    with pytest.raises(QuadFormError):
        compose(QuadForm(1, 0, 1), QuadForm(1, 1, 1))


def test_cm_point_examples():
    assert QuadForm(1, 1, 1).approx() == pytest.approx(complex(-0.5, math.sqrt(3) / 2))
    assert QuadForm(1, 0, 1).approx() == pytest.approx(1j)
    assert QuadForm(2, 1, 3).approx() == pytest.approx((-1 + 1j * math.sqrt(23)) / 4)


def test_cm_points_in_fundamental_domain():
    for d in valid_discs(300):
        for form in enumerate_reduced(d).reduced_forms:
            z = form.approx()
            assert abs(z.real) <= 0.5 + 1e-12
            assert abs(z) >= 1 - 1e-12


def projection_cases():
    cases = []
    for dp in valid_discs(200):
        src = Discriminant.of(dp)
        if src.f == 1:
            continue
        for f_t in range(1, src.f + 1):
            if src.f % f_t:
                continue
            cases.append((dp, Discriminant.of(f_t * f_t * src.d_K)))
    assert cases
    return cases


def test_project_class_homomorphism():
    for dp, target in projection_cases():
        gp = enumerate_reduced(dp)
        imgs = {f: project_class(f, target) for f in gp.reduced_forms}
        assert imgs[gp.identity] == enumerate_reduced(target.d).identity
        for f in gp.reduced_forms:
            for g in gp.reduced_forms:
                assert project_class(compose(f, g), target) == \
                    reduce_form(compose(imgs[f], imgs[g]))


# the last three have h(d_i) > 1, so the projection picks among classes
SURJECTIVE_CASES = [(-36, -4), (-108, -12), (-108, -27), (-48, -12), (-75, -3),
                    (-207, -23), (-135, -15), (-80, -20)]


def test_project_class_surjective():
    for dp, di in SURJECTIVE_CASES:
        target = Discriminant.of(di)
        image = {project_class(f, target)
                 for f in enumerate_reduced(dp).reduced_forms}
        assert image == set(enumerate_reduced(di).reduced_forms)


def test_one_hecke_image_of_the_target_discriminant():
    # the ascending isogeny is the only determinant-g image landing in
    # Cl(d_i); counted over hecke_cosets, without project_class
    for dp, target in projection_cases():
        g = Discriminant.of(dp).f // target.f
        for form in enumerate_reduced(dp).reduced_forms:
            hits = [c for c in hecke_cosets(g)
                    if hecke_image(form, c).disc == target.d]
            assert len(hits) == 1, (form, target.d)


def test_projection_is_the_isogeny_zero_of_phi_g():
    # phi_g(j(sigma), j(tau)) = 0 exactly when tau is the projection of
    # sigma: the two CM curves are g-isogenous (exact integer zero test)
    checks = 0
    for dp, di in SURJECTIVE_CASES:
        target = Discriminant.of(di)
        g = Discriminant.of(dp).f // target.f
        for sigma in enumerate_reduced(dp).reduced_forms:
            image = project_class(sigma, target)
            for tau in enumerate_reduced(di).reduced_forms:
                value = modpoly_eval(g, sigma, tau, CTX)
                assert value.is_zero == (tau == image), (sigma, tau)
                checks += 1
    assert checks == 50


def represented(form, n):
    """Whether the reduced form represents n, by brute force: a x^2 + b x y +
    c y^2 >= |d| y^2 / (4a) and >= |d| x^2 / (4c) bound the search."""
    a, b, c, d = form.a, form.b, form.c, -form.disc
    xmax = math.isqrt(4 * c * n // d) + 1
    ymax = math.isqrt(4 * a * n // d) + 1
    return any(a * x * x + b * x * y + c * y * y == n
               for x in range(-xmax, xmax + 1) for y in range(-ymax, ymax + 1))


def test_compose_represents_products():
    # f1 represents n1 and f2 represents n2, coprime to each other and to d:
    # then f1 f2 represents n1 n2 (the composition identity), checked on
    # values the forms take at small (x, y) by brute force
    checks = 0
    for d in (-23, -20, -47, -56, -71, -84, -108, -231):
        forms = enumerate_reduced(d).reduced_forms
        values = {}
        for f in forms:
            taken = {f.a * x * x + f.b * x * y + f.c * y * y
                     for x in range(-4, 5) for y in range(-4, 5)}
            values[f] = sorted(n for n in taken if math.gcd(n, d) == 1)[:5]
        for f1 in forms:
            for f2 in forms:
                composite = compose(f1, f2)
                for n1 in values[f1]:
                    for n2 in values[f2]:
                        if math.gcd(n1, n2) == 1:
                            assert represented(composite, n1 * n2), (f1, f2, n1, n2)
                            checks += 1
    assert checks > 1000


def test_project_class_rejects_incompatible():
    with pytest.raises(QuadFormError):
        project_class(QuadForm(1, 0, 1), Discriminant.of(-3))  # -4 vs -3
    with pytest.raises(QuadFormError):
        project_class(identity_form(-12), Discriminant.of(-48))  # wrong direction
