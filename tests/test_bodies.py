import hashlib
import math
import random
from fractions import Fraction

import pytest

from hadcover.bodies import (
    CROSSPOLYTOPE,
    LP,
    QUARTER_LP,
    SIMPLEX,
    TOL,
    BodySpec,
    contains_exact,
    contains_float,
    sample_boundary,
    vertices,
)
from hadcover import bodies
import oracles


def test_simplex_membership_examples():
    body = BodySpec(SIMPLEX, 2)
    assert contains_exact(body, (Fraction(1), Fraction(1)))
    assert contains_exact(body, (Fraction(0), Fraction(2)))
    assert not contains_exact(body, (Fraction(3, 2), Fraction(3, 4)))
    assert not contains_exact(body, (Fraction(-1, 10), Fraction(1)))


def test_crosspolytope_membership_example():
    body = BodySpec(CROSSPOLYTOPE, 3, scale=Fraction(4, 3))
    assert contains_exact(body, (Fraction(-2), Fraction(1), Fraction(1)))
    assert not contains_exact(body, (Fraction(-2), Fraction(1), Fraction(3, 2)))


def test_quarter_lp_membership_examples():
    body = BodySpec(QUARTER_LP, 2, 2.0)
    assert contains_float(body, (1.0, 1.0))
    assert not contains_float(body, (1.0, 1.1))
    assert not contains_float(body, (-0.5, 0.5))
    scaled = BodySpec(QUARTER_LP, 2, 2.0, math.sqrt(1.5))
    assert contains_float(scaled, (1.2, 1.0))
    # 2.0 ** 2000 is past the float range, and so past the finite bound.
    steep = BodySpec(QUARTER_LP, 2, 2000.0)
    assert contains_float(steep, (1.0, 0.0))
    assert contains_float(steep, (1.0, 1.0))
    assert not contains_float(steep, (2.0, 0.0))
    assert not contains_float(steep, (-1.0, 0.5))


def test_lp_membership_example():
    body = BodySpec(LP, 3, 2.0)
    assert contains_float(body, (-1.0, 1.0, 1.0))
    assert not contains_float(body, (2.0, 0.0, 0.0))
    steep = BodySpec(LP, 2, 2000.0)
    assert contains_float(steep, (1.0, 0.0))
    assert contains_float(steep, (-1.0, 1.0))
    assert not contains_float(steep, (2.0, 0.0))
    assert not contains_float(steep, (0.5, -2.0))


def test_contains_float_boundary_tolerance():
    body = BodySpec(LP, 2, 2.0)
    r = math.sqrt(2.0)
    assert contains_float(body, (r, 0.0))
    assert not contains_float(body, (r + 1e-6, 0.0))
    # The slack is the constant TOL: power sum bound * (1 + TOL/2) is in,
    # bound * (1 + 2 TOL) is out; likewise -TOL/2 and -2 TOL for the
    # quarter ball's sign check.
    assert contains_float(body, (math.sqrt(2.0 * (1 + TOL / 2)), 0.0))
    assert not contains_float(body, (math.sqrt(2.0 * (1 + 2 * TOL)), 0.0))
    assert contains_float(BodySpec(QUARTER_LP, 2, 2.0), (-TOL / 2, 1.0))
    assert not contains_float(BodySpec(QUARTER_LP, 2, 2.0), (-2 * TOL, 1.0))


def test_contains_float_rejects_nonfinite():
    body = BodySpec(LP, 2, 2.0)
    with pytest.raises(ValueError):
        contains_float(body, (math.nan, 0.0))
    with pytest.raises(ValueError):
        contains_float(body, (math.inf, 0.0))


def test_contains_float_rejects_polytopal_bodies():
    with pytest.raises(ValueError, match="float membership is for the l_p families"):
        contains_float(BodySpec(SIMPLEX, 2), (0.5, 0.5))


def test_contains_exact_rejects_curved_bodies():
    for body in (BodySpec(QUARTER_LP, 2, 2.0), BodySpec(LP, 2, 1.5)):
        with pytest.raises(ValueError, match="exact membership needs a polytopal body"):
            contains_exact(body, (0, 0))


def test_contains_exact_rejects_inexact_coordinates():
    for point in ((0.5, 0.5), ("1/2", 0)):
        with pytest.raises(ValueError, match="int or Fraction"):
            contains_exact(BodySpec(SIMPLEX, 2), point)
        with pytest.raises(ValueError, match="int or Fraction"):
            contains_exact(BodySpec(CROSSPOLYTOPE, 2), point)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        contains_exact(BodySpec(SIMPLEX, 2), (Fraction(1),))
    with pytest.raises(ValueError):
        contains_float(BodySpec(LP, 2, 2.0), (1.0, 0.0, 0.0))


def test_vertices_simplex():
    assert vertices(BodySpec(SIMPLEX, 2)) == [
        (Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(2)),
    ]
    scaled = vertices(BodySpec(SIMPLEX, 3, scale=Fraction(4, 3)))
    assert (Fraction(4), Fraction(0), Fraction(0)) in scaled
    assert scaled[0] == (Fraction(0),) * 3
    for body in (BodySpec(SIMPLEX, 2), BodySpec(SIMPLEX, 3, scale=Fraction(4, 3))):
        assert all(type(c) is int for v in vertices(body) for c in v)
    thin = vertices(BodySpec(SIMPLEX, 2, scale=Fraction(1, 3)))[1]
    assert thin == (Fraction(2, 3), 0) and type(thin[0]) is Fraction
    assert vertices(BodySpec(SIMPLEX, 2, scale=Fraction(1, 3))) == [
        (0, 0), (Fraction(2, 3), 0), (0, Fraction(2, 3))
    ]
    assert vertices(BodySpec(QUARTER_LP, 3, 1.0)) == vertices(BodySpec(SIMPLEX, 3))


def test_vertices_crosspolytope():
    got = set(vertices(BodySpec(CROSSPOLYTOPE, 2)))
    assert got == {
        (Fraction(2), Fraction(0)),
        (Fraction(-2), Fraction(0)),
        (Fraction(0), Fraction(2)),
        (Fraction(0), Fraction(-2)),
    }
    assert all(type(c) is int for v in got for c in v)
    assert vertices(BodySpec(CROSSPOLYTOPE, 3)) == [
        (3, 0, 0), (-3, 0, 0), (0, 3, 0), (0, -3, 0), (0, 0, 3), (0, 0, -3)
    ]
    assert all(type(c) is int for v in vertices(BodySpec(CROSSPOLYTOPE, 3)) for c in v)
    assert vertices(BodySpec(LP, 3, 1.0)) == vertices(BodySpec(CROSSPOLYTOPE, 3))


def test_vertices_only_for_polytopes():
    for body in (BodySpec(QUARTER_LP, 2, 2.0), BodySpec(LP, 3, 1.5)):
        with pytest.raises(ValueError):
            vertices(body)


def test_vertices_lie_on_defining_boundary():
    for n in (1, 2, 3, 5):
        body = BodySpec(SIMPLEX, n, scale=Fraction(7, 5))
        for v in vertices(body)[1:]:
            assert sum(v) == body.scale * n
        sym = BodySpec(CROSSPOLYTOPE, n, scale=Fraction(7, 5))
        for v in vertices(sym):
            assert sum(abs(c) for c in v) == sym.scale * n


def test_membership_scaling_consistency():
    rng = random.Random(5)
    scale = Fraction(5, 3)
    for n in (1, 2, 4):
        base = BodySpec(SIMPLEX, n)
        scaled = BodySpec(SIMPLEX, n, scale=scale)
        for point in oracles.rational_points(rng, n, 4, 40):
            shrunk = tuple(c / scale for c in point)
            assert contains_exact(scaled, point) == contains_exact(base, shrunk)


def _boundary_point(rng, body):
    """Ints and Fractions of unequal denominators with sum |c_i| = scale * n exactly."""
    n = body.n
    share = Fraction(body.scale)
    point = []
    for _ in range(n - 1):
        d = rng.choice((1, 2, 3, 4, 7, 12))
        point.append(share * Fraction(rng.randint(0, d), d))
    point.append(share * n - sum(point))  # at least share, so positive
    rng.shuffle(point)
    if not body.nonnegative:
        point = [c if rng.random() < 0.5 else -c for c in point]
    return [int(c) if c.denominator == 1 and rng.random() < 0.7 else c for c in point]


def _nudged(point, step):
    """point with its largest |c_i| moved by step, away from zero when step > 0."""
    i = max(range(len(point)), key=lambda j: abs(point[j]))
    out = list(point)
    out[i] += step if point[i] >= 0 else -step
    return tuple(out)


def test_contains_exact_matches_the_fraction_sum():
    rng = random.Random(14)
    verdicts = {True: 0, False: 0}
    seen = set()  # (type, denominator) of every boundary coordinate
    for family in (SIMPLEX, CROSSPOLYTOPE, QUARTER_LP, LP):
        for n in (1, 2, 3, 5):
            for scale in (1, 3, Fraction(5, 3), Fraction(7, 12)):
                body = BodySpec(family, n, 1.0, scale)
                for _ in range(15):
                    point = _boundary_point(rng, body)
                    seen.update((type(c), c.denominator) for c in point)
                    den = math.lcm(*(c.denominator for c in point))
                    assert sum(map(abs, point)) == Fraction(scale) * n
                    cases = [(tuple(point), True), (_nudged(point, Fraction(1, den)), False),
                             (_nudged(point, Fraction(-1, den)), True)]
                    if body.nonnegative:
                        # On the l1 boundary, outside by the sign rule alone.
                        j = max(range(n), key=lambda i: point[i])
                        flipped = tuple(-c if i == j else c for i, c in enumerate(point))
                        cases.append((flipped, False))
                    for y, inside in cases:
                        assert oracles.reference_contains_exact(body, y) is inside, (body, y)
                        assert contains_exact(body, y) is inside, (body, y)
                        verdicts[inside] += 1
    assert min(verdicts.values()) > 500
    assert {int, Fraction} <= {t for t, _ in seen} and len({d for _, d in seen}) > 5


def test_rescaled_body():
    body = BodySpec(SIMPLEX, 3).rescaled(Fraction(5, 3))
    assert body.scale == Fraction(5, 3)
    assert body.family == "simplex"
    assert contains_exact(body, (Fraction(5), Fraction(0), Fraction(0)))


def test_float_and_exact_agree_away_from_boundary():
    rng = random.Random(11)
    body_exact = BodySpec(CROSSPOLYTOPE, 3)
    body_float = BodySpec(LP, 3, 1.0)
    for point in oracles.rational_points(rng, 3, 4, 60):
        total = sum(abs(c) for c in point)
        if abs(total - 3) < Fraction(1, 100):
            continue
        floated = tuple(float(c) for c in point)
        assert contains_float(body_float, floated) == contains_exact(body_exact, point)


def test_sampling_is_deterministic():
    body = BodySpec(CROSSPOLYTOPE, 3, scale=Fraction(3, 2))
    assert sample_boundary(body, 20, 42) == sample_boundary(body, 20, 42)
    assert sample_boundary(body, 20, 42) != sample_boundary(body, 20, 43)
    assert sample_boundary(body, 2, 42) == [
        (Fraction(7977873, 6087500), Fraction(3551623, 3043750),
         Fraction(-12949437, 12175000)),
        (Fraction(5361, 1375), Fraction(23231, 79200), Fraction(-109007, 396000)),
    ]
    # The nonnegative family draws no signs; the float sampler draws its own.
    assert sample_boundary(BodySpec(SIMPLEX, 3, scale=Fraction(3, 2)), 2, 42) == [
        (Fraction(7977873, 6087500), Fraction(3551623, 3043750),
         Fraction(12949437, 12175000)),
        (Fraction(1638679, 1001650), Fraction(652904, 2504125), Fraction(4435529, 2504125)),
    ]
    assert sample_boundary(BodySpec(LP, 3, 2.5, 1.2), 2, 42) == [
        (-0.6026363365657593, -0.48909295313604306, 1.6137345542713255),
        (0.7015101711930984, -1.6214560850610507, -0.08514190022306795),
    ]


# sha256 of repr([sample_boundary(body, 40, seed=body.n), ...]) over
# n = 1, 7, 20 and scales 2, 27/20 and 9/10 (the last puts the shell
# floor on its (n-1)/n branch), as the sampler drew them when every
# target was a Fraction sum.  Any change to a sampled value or to the
# order of the random draws shows here.
SAMPLE_DIGESTS = {
    ("simplex", 1.0): "2649a84750a7c2f60439431e22020e4ad8d5ba422e9e8ccf64f7ad0fee541db8",
    ("crosspolytope", 1.0): "b0792b3b4214fa1c50369e3143e5122a552dfa659944933f39acda5697c212a5",
    ("qlp", 2.5): "442a2ba71be72bf047d16d8aef7bf818eb5d37e21d590c0534116ceecc2de1a3",
    ("lp", 2.5): "0bf1eaa790febc406e455d3c2db9b4fbb1bf2f47d815df4d47857bd7999d57c6",
}
STEEP_SAMPLE_DIGEST = "556138ad85e0740da179c6fdd7a3ddd4cf0599dbbbd7ea24445b07b6c1bb8fd1"


def _sample_digest(bodies):
    samples = [sample_boundary(body, 40, body.n) for body in bodies]
    return hashlib.sha256(repr(samples).encode()).hexdigest()


def test_sample_stream_is_pinned():
    for (family, p), expected in SAMPLE_DIGESTS.items():
        bodies = [BodySpec(family, n, p, scale) for n in (1, 7, 20)
                  for scale in (2, Fraction(27, 20), Fraction(9, 10))]
        assert _sample_digest(bodies) == expected, family
    # At p = 1100 the power sums underflow and the factor steps down.
    assert _sample_digest([BodySpec(LP, 2, 1100.0)]) == STEEP_SAMPLE_DIGEST


def test_a_continued_stream_does_not_depend_on_the_split():
    # An int seed starts the stream of random.Random(seed); consecutive
    # calls on one generator continue it, so any split of a count draws
    # the samples of one call.
    count = 9
    for body in (BodySpec(SIMPLEX, 3, scale=Fraction(3, 2)),
                 BodySpec(CROSSPOLYTOPE, 4, scale=Fraction(9, 10)),
                 BodySpec(QUARTER_LP, 3, 2.5, 1.2), BodySpec(LP, 5, 1.5, 2)):
        whole = sample_boundary(body, count, 7)
        assert sample_boundary(body, count, random.Random(7)) == whole
        for a in (1, 4, count - 1):
            rng = random.Random(7)
            assert sample_boundary(body, a, rng) + sample_boundary(body, count - a, rng) == whole
        rng = random.Random(7)
        assert [sample_boundary(body, 1, rng)[0] for _ in range(count)] == whole


def test_each_call_reads_its_body_once(monkeypatch):
    # Both samplers take the shell floor, like the rest of the body's
    # constants, once per call, however many samples land in the shell.
    calls = []

    def floor(total, n):
        calls.append(n)
        return shell_floor(total, n)

    shell_floor = bodies._shell_floor
    monkeypatch.setattr(bodies, "_shell_floor", floor)
    for body in (BodySpec(SIMPLEX, 3, scale=Fraction(3, 2)),
                 BodySpec(CROSSPOLYTOPE, 4, scale=Fraction(9, 10)),
                 BodySpec(QUARTER_LP, 3, 2.5, 1.2), BodySpec(LP, 5, 1.5, 2)):
        calls.clear()
        assert len(sample_boundary(body, 50, 7)) == 50
        assert calls == [body.n], body.family

def test_samples_stay_inside_exact_bodies():
    for body in (BodySpec(SIMPLEX, 3, scale=Fraction(3, 2)),
                 BodySpec(CROSSPOLYTOPE, 2, scale=Fraction(5, 2))):
        for point in sample_boundary(body, 200, 9):
            assert contains_exact(body, point)
            assert all(isinstance(c, Fraction) for c in point)


def test_samples_stay_inside_float_bodies():
    # At p = 1100 and 5000 every w**p of a draw can underflow to zero.
    # At p = 1000 and scale 1.1 draws often land a few ulps past the bound
    # and the sampler steps its factor down; the power sum it stops at is
    # held to the bound with no tolerance.
    for body in (BodySpec(QUARTER_LP, 3, 2.0, 1.2), BodySpec(LP, 2, 1.5, 1.1),
                 BodySpec(LP, 2, 1100.0), BodySpec(QUARTER_LP, 2, 5000.0),
                 BodySpec(LP, 2, 1000.0, 1.1)):
        for point in sample_boundary(body, 200, 9):
            assert contains_float(body, point)
            assert sum(abs(c) ** body.p for c in point) <= body.bound


def test_single_sample_lands_in_outer_shell():
    body = BodySpec(SIMPLEX, 2, scale=Fraction(3, 2))
    (point,) = sample_boundary(body, 1, 7)
    total = sum(point)
    assert 2 < total <= 3


def test_shell_bias_share():
    body = BodySpec(SIMPLEX, 2, scale=Fraction(3, 2))
    points = sample_boundary(body, 400, 3)
    in_shell = sum(1 for p in points if sum(p) > 2)
    assert in_shell >= 280


def test_sample_count_must_be_positive():
    for body in (BodySpec(SIMPLEX, 2), BodySpec(LP, 2, 2.0)):
        for count in (0, -1):
            with pytest.raises(ValueError, match="count must be >= 1"):
                sample_boundary(body, count, 7)


def test_one_dimensional_samples():
    body = BodySpec(CROSSPOLYTOPE, 1, scale=Fraction(2))
    for (coord,) in sample_boundary(body, 3, 1):
        assert abs(coord) <= 2


def test_body_spec_validation():
    with pytest.raises(ValueError):
        BodySpec("simplex", 0)
    for p in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            BodySpec("lp", 2, p)
    with pytest.raises(ValueError):
        BodySpec("simplex", 2, 1.0, 1.5)
    with pytest.raises(ValueError):
        BodySpec("nope", 2)
    with pytest.raises(ValueError):
        BodySpec(SIMPLEX, 2, scale=Fraction(-1))
    # Curved bodies whose scale**p * n leaves the float range.
    with pytest.raises(ValueError, match="finite"):
        BodySpec(QUARTER_LP, 2, 5000.0, 1.2)
    for scale in (1e200, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            BodySpec(LP, 2, 2.0, scale)
    # Polytopal bodies stay exact at any magnitude.
    assert BodySpec(SIMPLEX, 2, scale=10**400).bound == 2 * 10**400


def test_bound_is_scale_power_times_n():
    assert BodySpec(SIMPLEX, 3, scale=Fraction(5, 2)).bound == Fraction(15, 2)
    assert BodySpec(LP, 4, 1.0, Fraction(1, 3)).bound == Fraction(4, 3)
    assert BodySpec(QUARTER_LP, 3, 2.5, 1.3).bound == 1.3 ** 2.5 * 3
    body = BodySpec(LP, 2, 3.0, 2.0)
    assert body.bound is body.bound == 16.0
