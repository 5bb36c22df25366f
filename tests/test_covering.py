import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from hadcover.covering import (
    decompose_crosspolytope,
    decompose_simplex,
    gamma_upper_bound,
    t_sequence,
    verify_covering_exact,
    verify_covering_lp,
)
from hadcover import bodies, covering, lattice_sets
from hadcover.lattice_sets import LatticeSetSpec
import oracles


def test_decompose_simplex_example():
    w = decompose_simplex(2, 1, (Fraction(8, 5), Fraction(6, 5)))
    assert w.z == (1, 0)
    assert w.residual == (Fraction(3, 5), Fraction(6, 5))
    assert w.shell_level == 1


def test_decompose_simplex_vertex():
    w = decompose_simplex(2, 2, (Fraction(2), Fraction(2)))
    assert w.z == (2, 0)
    assert w.residual == (Fraction(0), Fraction(2))
    assert w.shell_level == 2


def test_decompose_simplex_interior_point_needs_no_translate():
    w = decompose_simplex(3, 2, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    assert w.z == (0, 0, 0)
    assert w.shell_level == 0


def test_decompose_crosspolytope_example():
    w = decompose_crosspolytope(2, 1, (Fraction(-7, 5), Fraction(9, 10)))
    assert w.z == (-1, 0)
    assert w.residual == (Fraction(-2, 5), Fraction(9, 10))


def test_decompose_crosspolytope_one_dimensional():
    w = decompose_crosspolytope(1, 2, (Fraction(-3),))
    assert w.z == (-2,)
    assert w.residual == (Fraction(-1),)
    assert w.shell_level == 2


def test_decompose_rejects_outside_points():
    with pytest.raises(ValueError, match="^point lies outside the scaled simplex$"):
        decompose_simplex(2, 1, (Fraction(2), Fraction(2)))
    with pytest.raises(ValueError, match="^point lies outside the scaled simplex$"):
        decompose_simplex(2, 1, (Fraction(1), Fraction(-1, 3)))
    with pytest.raises(ValueError, match="^point lies outside the scaled crosspolytope$"):
        decompose_crosspolytope(2, 1, (Fraction(-3), Fraction(1)))


def test_decompose_rejects_inexact_coordinates():
    for decompose in (decompose_simplex, decompose_crosspolytope):
        for point in ((0.5, 0.5), ("1/2", 0)):
            with pytest.raises(ValueError, match="int or Fraction"):
                decompose(2, 1, point)


def test_witnesses_are_sound_on_random_samples():
    for family, kind in (("simplex", "m1"), ("crosspolytope", "m2")):
        decompose = decompose_simplex if family == "simplex" else decompose_crosspolytope
        for n in (1, 2, 3):
            for k in (0, 1, 2):
                body = bodies.BodySpec(family, n, 1.0, Fraction(n + k, n))
                spec = LatticeSetSpec(kind, n, k)
                base = bodies.BodySpec(family, n)
                for y in bodies.sample_boundary(body, 60, seed=n * 10 + k):
                    w = decompose(n, k, y)
                    assert lattice_sets.member(spec, w.z)
                    assert bodies.contains_exact(base, w.residual)
                    assert tuple(a + b for a, b in zip(w.z, w.residual)) == tuple(y)
                    assert 0 <= w.shell_level <= k


def _fields(z, residual, level):
    # repr tells int from Fraction from float, and -0.0 from 0.0.
    return z, [(type(c), repr(c)) for c in residual], level


def _mixed_point(rng, n, cap):
    # ints and Fractions with unequal denominators, each at most cap in magnitude.
    point = []
    for _ in range(n):
        d = 1 if rng.random() < 0.3 else rng.randint(2, 12)
        c = Fraction(rng.randint(-math.floor(cap * d), math.floor(cap * d)), d)
        point.append(c.numerator if d == 1 else c)
    return tuple(point)


def test_decompose_matches_the_fraction_greedy():
    rng = random.Random(12)
    for family, decompose in (("simplex", decompose_simplex),
                              ("crosspolytope", decompose_crosspolytope)):
        for n in (1, 2, 3, 5, 8):
            for k in (0, 1, 2, 4):
                scaled = bodies.BodySpec(family, n, 1.0, Fraction(n + k, n))
                points = bodies.sample_boundary(scaled, 40, seed=100 * n + k)
                mixed = [_mixed_point(rng, n, Fraction(2 * (n + k), n)) for _ in range(200)]
                if family == "simplex":
                    mixed = [tuple(abs(c) for c in y) for y in mixed]
                mixed = [y for y in mixed if bodies.contains_exact(scaled, y)]
                assert len(mixed) > 20
                assert any(isinstance(c, int) for y in mixed for c in y)
                for y in points + mixed:
                    w = decompose(n, k, y)
                    assert _fields(w.z, w.residual, w.shell_level) == _fields(
                        *oracles.reference_decompose(n, y))


def _peel_cases():
    """(base, k, point): samples, uniform points, and adversarial points."""
    rng = random.Random(7)
    for family in ("qlp", "lp"):
        for p in (1.5, 2.5, 4.0, 100.0):
            for k in (0, 1, 4, 8):
                for n in (2, 5):
                    base = bodies.BodySpec(family, n, p)
                    scaled = covering._inflated(base, k)
                    for y in bodies.sample_boundary(scaled, 40, seed=int(p * 100) + 10 * k + n):
                        yield base, k, y
                    for _ in range(20):
                        yield base, k, tuple(rng.uniform(-3, 3) for _ in range(n))
                base = bodies.BodySpec(family, 3, p)
                for k in (0, 1, 4, 8):
                    for y in itertools.product((-1e-8, -0.5, 0, 0.0, 1, 1 + 2**-52, 2.0), repeat=3):
                        yield base, k, y
                    # Ties in magnitude, signed zeros, and points already inside.
                    for y in ((2.0, -2.0, 2.0), (-1.5, 1.5, 0.0), (0.0, -0.0, -0.0),
                              (-1.0, -1.0, -1.0), (0.5, 0.25, 0.0), (1.0, 1.0, 1.0)):
                        yield base, k, y


def test_peel_matches_one_membership_call_per_move():
    cases = 0
    for base, k, y in _peel_cases():
        w = covering._peel(base, base.n, k, y)
        assert _fields(w.z, w.residual, w.shell_level) == _fields(
            *oracles.reference_peel(base, base.n, k, y)), (base, k, y)
        cases += 1
    assert cases > 10000


def test_peel_at_k_zero_copies_nothing():
    # No move can be made, so the peel returns y itself as the residual
    # and builds only the zero translate, 8 bytes per coordinate; copying
    # y into the lists of a move took 96.
    n = 10**5
    base = bodies.BodySpec("lp", n, 2.0)
    y = tuple(random.Random(5).random() for _ in range(n))
    tracemalloc.start()
    try:
        w = covering._peel(base, n, 0, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (w.z, w.residual, w.shell_level) == ((0,) * n, y, 0)
    assert peak < 24 * n, peak / n

def test_verify_covering_exact_passes():
    for family in ("simplex", "crosspolytope"):
        report = verify_covering_exact(family, 3, 2, samples=200, seed=1)
        assert report.ok
        assert report.witness_failures == 0
        assert report.translate_failures == 0
        assert sum(report.shell_levels.values()) == 200
        assert all(0 <= level <= 2 for level in report.shell_levels)


def test_verify_covering_exact_checks_every_translate():
    report = verify_covering_exact("crosspolytope", 2, 1, samples=50, seed=42)
    assert report.ok
    assert report.translates_checked == 5
    report = verify_covering_exact("simplex", 2, 2, samples=50, seed=42)
    assert report.translates_checked == 6


def test_verify_covering_exact_broken_witness_fails(broken_witnesses):
    report = verify_covering_exact("simplex", 2, 1, samples=40, seed=3)
    assert not report.ok
    assert report.witness_failures == 40
    report = verify_covering_exact("crosspolytope", 2, 1, samples=40, seed=3)
    assert not report.ok
    assert report.witness_failures > 0


def _assert_reports_ignore_the_blocks(monkeypatch):
    # One body per family, 23 samples: blocks of 1, 2 and 3 samples (the
    # last one short) and the default single block give one report, and
    # sample_boundary is called once per block.
    default, sample = covering._SAMPLE_BLOCK, bodies.sample_boundary
    counts = []

    def counted(body, count, seed):
        counts.append(count)
        return sample(body, count, seed)

    monkeypatch.setattr(bodies, "sample_boundary", counted)
    for base, k in ((bodies.BodySpec("simplex", 3), 2), (bodies.BodySpec("crosspolytope", 4), 1),
                    (bodies.BodySpec("qlp", 3, 2.0), 1), (bodies.BodySpec("lp", 5, 2.5), 2)):
        n = base.n
        expected = covering._verify(base, k, 23, 5)
        for coords, block in ((1, 1), (n - 1, 1), (n + 1, 1), (2 * n + 1, 2), (3 * n, 3),
                              (default, 23)):
            monkeypatch.setattr(covering, "_SAMPLE_BLOCK", coords)
            counts.clear()
            assert covering._verify(base, k, 23, 5) == expected
            assert counts == [block] * (23 // block) + [23 % block] * (23 % block > 0)
        monkeypatch.setattr(covering, "_SAMPLE_BLOCK", default)
    return expected


def test_report_does_not_depend_on_the_sample_blocks(monkeypatch):
    assert _assert_reports_ignore_the_blocks(monkeypatch).ok


def test_failures_do_not_depend_on_the_sample_blocks(broken_witnesses, monkeypatch):
    assert _assert_reports_ignore_the_blocks(monkeypatch).witness_failures == 23


def test_verification_memory_does_not_grow_with_samples():
    # Past n = 2048 a block is one sample, and the previous sample is
    # released before the next is drawn, so 8 samples peak where 1 does.
    # Holding every sample, or the last one across blocks, peaks 8 or 2
    # times as high.
    def peak(base, k, samples):
        tracemalloc.start()
        try:
            covering._verify(base, k, samples, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for base, k in ((bodies.BodySpec("crosspolytope", 3000), 1),
                    (bodies.BodySpec("lp", 5000, 2.0), 0)):
        covering._verify(base, k, 1, 3)
        one, eight = peak(base, k, 1), peak(base, k, 8)
        assert eight <= 1.1 * one, (base.family, one, eight)


def test_translate_sweep_counts_escaping_vertices(monkeypatch):
    # Below the covering scale, translate vertices of the top shells leave
    # the body while every witness still holds.  The verifier's sweep, the
    # box oracle and the per-vertex reference sweep must count them alike,
    # for integer and non-integer bounds.
    cases = (("simplex", 3, 2, 18), ("crosspolytope", 2, 1, 12),
             ("crosspolytope", 3, 2, 78), ("simplex", 2, 1, 4),
             ("simplex", 5, 2, None), ("crosspolytope", 4, 2, None))
    for shortfall in (1, Fraction(1, 2), 2):
        def short(base, k):
            return base.rescaled((base.n + k - shortfall) / Fraction(base.n))

        monkeypatch.setattr(covering, "_inflated", short)
        for family, n, k, expected in cases:
            report = verify_covering_exact(family, n, k, samples=30, seed=1)
            base = bodies.BodySpec(family, n)
            spec = covering._translation_set(base, k)
            reference = oracles.reference_sweep(base, short(base, k), spec)
            assert report.witness_failures == 0
            assert reference == (report.translates_checked, report.translate_failures)
            assert oracles.box_escaping_vertices(
                family, n, k, n + k - shortfall) == report.translate_failures > 0
            if shortfall < 2 and expected is not None:
                assert report.translate_failures == expected
            assert not report.ok


def test_check_budget_is_exact_and_refuses_before_any_work(monkeypatch):
    # The cross-polytope sweep at n = 2, k = 1 counts k + 1 = 2 levels at
    # min(n, k) + 10 = 11 each: 22 checks, plus 4 samples x n = 2 exact
    # coordinates at SAMPLE_WEIGHT = 70 each is 582.  A curved body has
    # no sweep; each sampled coordinate costs CURVED_WEIGHT = 19 checks to
    # draw and re-check plus one per peel step, k + 1 of them, so 5
    # samples x n = 2 x 22 at k = 2 is 220.
    assert (covering.SAMPLE_WEIGHT, covering.CURVED_WEIGHT) == (70, 19)
    monkeypatch.setattr(covering, "MAX_CHECKS", 582)
    assert verify_covering_exact("crosspolytope", 2, 1, samples=4, seed=1).ok
    monkeypatch.setattr(covering, "MAX_CHECKS", 220)
    assert verify_covering_lp("lp", 2, 2.0, 2, samples=5, seed=1).ok
    monkeypatch.setattr(covering, "MAX_CHECKS", 29)

    def no_work(*args):
        raise AssertionError("sampled before the budget check")

    monkeypatch.setattr(bodies, "sample_boundary", no_work)
    with pytest.raises(ValueError, match=r"^verification needs 582 checks \(2 levels "
                       r"x min\(n, k\) \+ 10 = 11 \+ 4 samples x n = 2 x 70 per exact "
                       r"coordinate\), over the budget of 29$"):
        verify_covering_exact("crosspolytope", 2, 1, samples=4, seed=1)
    with pytest.raises(ValueError, match=r"^verification needs 220 checks \(5 samples "
                       r"x n = 2 x 19 \+ k \+ 1 = 22 per curved coordinate\), "
                       r"over the budget of 29$"):
        verify_covering_lp("lp", 2, 2.0, 2, samples=5, seed=1)
    # The simplex at n = 3, k = 2: 3 levels at 12 each, plus 1 sample x n = 3 x 70.
    with pytest.raises(ValueError, match=r"^verification needs 246 checks \(3 levels"):
        verify_covering_exact("simplex", 3, 2, samples=1, seed=1)
    monkeypatch.setattr(covering, "MAX_CHECKS", 581)
    with pytest.raises(ValueError, match=r"^verification needs 582 checks "):
        verify_covering_exact("crosspolytope", 2, 1, samples=4, seed=1)
    monkeypatch.setattr(covering, "MAX_CHECKS", 219)
    with pytest.raises(ValueError, match=r"^verification needs 220 checks "):
        verify_covering_lp("lp", 2, 2.0, 2, samples=5, seed=1)


def test_exact_samples_are_charged_on_the_sweep_scale(monkeypatch):
    # At n = 100000 an exact sample takes about 0.42 s, so 999 samples
    # would run for minutes; 14 samples, about 6 s, are the most admitted.
    def no_work(*args):
        raise AssertionError("sampled before the budget check")

    monkeypatch.setattr(bodies, "sample_boundary", no_work)
    for samples, checks in ((999, 6993000022), (15, 105000022)):
        with pytest.raises(ValueError, match=rf"^verification needs {checks} checks"):
            verify_covering_exact("crosspolytope", 100000, 1, samples=samples, seed=1)


def test_curved_samples_are_charged_their_drawing(monkeypatch):
    # At k = 0 a curved coordinate is charged 19 + 1 checks: one sample at
    # n = 99,000,000, minutes of drawing, is refused, and n = 5,000,000
    # is the largest single sample admitted.
    def no_work(*args):
        raise AssertionError("sampled before the budget check")

    monkeypatch.setattr(bodies, "sample_boundary", no_work)
    for n, checks in ((99000000, 1980000000), (5000001, 100000020)):
        with pytest.raises(ValueError, match=rf"^verification needs {checks} checks"):
            verify_covering_lp("lp", n, 2.0, 0, samples=1, seed=1)
    with pytest.raises(AssertionError, match="^sampled before the budget check$"):
        verify_covering_lp("lp", 5000000, 2.0, 0, samples=1, seed=1)


def test_level_sweep_matches_the_enumerating_oracles():
    # Every limit from four below the covering bound n + k to one above,
    # integer and not, with the failing classes the shortened limits give.
    cases = failing = 0
    for family in ("simplex", "crosspolytope"):
        for n in range(1, 5):
            for k in range(5):
                base = bodies.BodySpec(family, n)
                spec = covering._translation_set(base, k)
                for limit in range(n + k - 4, n + k + 2):
                    for bound in (limit, limit + Fraction(1, 3)):
                        if bound <= 0:
                            continue
                        scaled = base.rescaled(Fraction(bound) / n)
                        got = covering._sweep(base, scaled, k)
                        assert got == oracles.reference_sweep(base, scaled, spec)
                        assert got[0] == lattice_sets.count(spec)
                        assert got[1] == oracles.box_escaping_vertices(family, n, k, bound)
                        cases += 1
                        failing += got[1] > 0
    assert cases > 400 and failing > 200


def test_decomposers_decide_membership_by_shell_level(monkeypatch):
    # y lies in ((n+k)/n) * body exactly when its shell level is at most k,
    # so the decomposers need no inflated body.
    def no_body(base, k):
        raise AssertionError("decomposer built an inflated body")

    monkeypatch.setattr(covering, "_inflated", no_body)
    n, k = 3, 2
    for family, decompose, y in (
        ("simplex", decompose_simplex, (Fraction(5, 2), Fraction(3, 2), 1)),
        ("crosspolytope", decompose_crosspolytope, (Fraction(-5, 2), Fraction(3, 2), -1)),
    ):
        assert sum(map(abs, y)) == n + k  # on the boundary of the scaled body
        w = decompose(n, k, y)
        assert w.shell_level == k
        assert bodies.contains_exact(bodies.BodySpec(family, n), w.residual)
        # Past the boundary by 1/D, D = 2 the lcm denominator of y.
        past = (y[0] + Fraction(1, 2) * (1 if y[0] > 0 else -1),) + y[1:]
        with pytest.raises(ValueError, match=f"^point lies outside the scaled {family}$"):
            decompose(n, k, past)
    with pytest.raises(ValueError, match="^point lies outside the scaled simplex$"):
        decompose_simplex(n, k, (Fraction(-1, 2), 1, 1))
    for decompose in (decompose_simplex, decompose_crosspolytope):
        with pytest.raises(ValueError, match="^dimension n must be >= 1$"):
            decompose(0, k, ())


def test_report_serialization():
    report = verify_covering_exact("simplex", 2, 1, samples=20, seed=8)
    data = report.to_dict()
    assert data["ok"] is True
    assert data["success_rate"] == 1.0
    assert all(isinstance(key, str) for key in data["shell_levels"])
    assert sum(data["shell_levels"].values()) == 20


def test_report_is_built_once_and_keeps_its_key_order():
    report = verify_covering_exact("crosspolytope", 2, 1, samples=5, seed=3)
    assert list(report.to_dict()) == [
        "kind", "n", "k", "p", "samples", "seed", "witness_failures",
        "translate_failures", "translates_checked", "success_rate", "shell_levels", "ok"]
    assert report == verify_covering_exact("crosspolytope", 2, 1, samples=5, seed=3)
    with pytest.raises(AttributeError):
        report.ok = False


def test_records_repr_compare_and_refuse_assignment():
    bound = gamma_upper_bound("simplex", 2, 1.0, 1)
    assert repr(bound) == ("GammaBound(m=3, rho=Fraction(2, 3), body=BodySpec("
                           "family='simplex', n=2, p=1.0, scale=Fraction(1, 1)))")
    assert repr(bodies.BodySpec("lp", 3, 2.5, 2)) == "BodySpec(family='lp', n=3, p=2.5, scale=2)"
    assert bound == gamma_upper_bound("simplex", 2, 1.0, 1)
    assert hash(bound) == hash(gamma_upper_bound("simplex", 2, 1.0, 1))
    assert bound != gamma_upper_bound("simplex", 2, 1.0, 2)
    simplex3 = bodies.BodySpec("simplex", 3)
    assert len({simplex3, bodies.BodySpec("simplex", 3, 1.0), bodies.BodySpec("simplex", 4)}) == 2
    witness = decompose_simplex(2, 1, (Fraction(8, 5), Fraction(6, 5)))
    assert witness == decompose_simplex(2, 1, (Fraction(8, 5), Fraction(6, 5)))
    assert witness._replace(z=(0, 0)).z == (0, 0) and witness.z == (1, 0)
    spec = LatticeSetSpec(lattice_sets.M2, 3, 2)
    for record, name in ((bound, "m"), (witness, "z"), (t_sequence(3, 2.0, 1), "values"),
                         (spec, "k"), (spec, "extra"), (simplex3, "n"), (simplex3, "bound"),
                         (simplex3, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, name, 5)


def test_specs_validate_on_replace():
    with pytest.raises(ValueError, match="^dimension n must be >= 1$"):
        bodies.BodySpec("simplex", 3)._replace(n=0)
    with pytest.raises(ValueError, match="^k must be >= 0$"):
        LatticeSetSpec(lattice_sets.M1, 3, 2)._replace(k=-1)
    assert bodies.BodySpec("simplex", 3)._replace(scale=2) == bodies.BodySpec("simplex", 3, 1.0, 2)
    assert type(LatticeSetSpec("m1", 2, 1)._replace(kind="m2")) is LatticeSetSpec


def test_body_bound_is_exact_and_cached():
    body = bodies.BodySpec("crosspolytope", 3, scale=Fraction(1, 2))
    assert "bound" not in vars(body)
    assert body.bound == Fraction(3, 2) and type(body.bound) is Fraction
    assert vars(body)["bound"] is body.bound
    assert body.rescaled(2).bound == 6
    assert "bound" not in vars(body.rescaled(Fraction(1, 3)))


def test_t_sequence_p1_is_exact():
    ts = t_sequence(3, 1.0, 5)
    assert ts.values == tuple(Fraction(3 + j, 3) for j in range(6))
    assert all(isinstance(v, Fraction) for v in ts.values)


def test_t_sequence_first_step_matches_quadratic_root():
    for n in (2, 3, 5, 8):
        ts = t_sequence(n, 2.0, 1)
        assert ts.values[0] == 1.0
        assert abs(ts.values[1] - oracles.t1_closed_form(n)) < 1e-11


def test_t_sequence_floor_and_step_bounds():
    for n in (2, 3, 5):
        for p in (1.5, 2.0, 3.0, 2000.0, 1e6):
            ts = t_sequence(n, p, 20)
            for k, t in enumerate(ts.values):
                assert t**p >= (n + k) / n - 1e-10
            for k in range(20):
                assert ts.values[k + 1] ** p - ts.values[k] ** p >= 1 / n - 1e-10
                assert ts.values[k + 1] > ts.values[k]


def test_t_sequence_recurrence_residual_small():
    for n in (2, 4):
        for p in (1.5, 2.0, 3.0, 1100.0, 2000.0, 1e6):
            ts = t_sequence(n, p, 10)
            for k in range(10):
                t_next = ts.values[k + 1]
                lhs = (t_next - 1.0) ** p + (n - 1) * t_next**p
                rhs = n * ts.values[k] ** p
                assert abs(lhs - rhs) <= bodies.TOL * rhs


def test_t_sequence_past_the_float_range():
    # Far past TOL * 2^53 no float puts t**p within TOL of the recurrence
    # (the residual tests above run p = 2000 and 1e6, which floats resolve):
    # refused, not a wrong sequence.
    for p in (1e15, 1e300):
        with pytest.raises(ValueError, match=r"^p is too large: t\*\*p is not resolved"):
            t_sequence(3, p, 2)


def test_scale_search_stops_where_floats_are_coarser_than_its_step():
    # Past t = 2^13 adjacent floats lie more than DEFAULT_TOL apart; the
    # search stops there instead of halving the same bracket forever.
    for t_prev in (10000.0, 1e6):
        t = covering._next_scale(2, 2.0, t_prev, 2 * t_prev**2)
        assert t_prev < t < t_prev + 1.0
        assert abs((t - 1.0) ** 2 + t**2 - 2 * t_prev**2) <= bodies.TOL * 2 * t_prev**2


def test_t_sequence_validation():
    with pytest.raises(ValueError):
        t_sequence(1, 2.0, 3)
    with pytest.raises(ValueError):
        t_sequence(3, 0.5, 3)
    with pytest.raises(ValueError):
        t_sequence(3, 2.0, -1)
    for p in (math.nan, math.inf):
        with pytest.raises(ValueError):
            t_sequence(3, p, 3)
    with pytest.raises(ValueError, match="^p is too large"):
        t_sequence(2, 1e300, 2)


def test_t_sequence_refuses_k_past_its_budget_before_any_step(monkeypatch):
    monkeypatch.setattr(covering, "MAX_SCALE_STEPS", 4)
    assert len(t_sequence(3, 2.0, 4).values) == len(t_sequence(3, 1.0, 4).values) == 5
    monkeypatch.setattr(covering, "_next_scale", None)
    for p in (1.0, 2.0):
        with pytest.raises(ValueError, match="^k_max = 5 is over the budget of 4 scale steps$"):
            t_sequence(3, p, 5)


def test_verify_covering_lp_passes():
    report = verify_covering_lp("qlp", 2, 2.0, 1, samples=300, seed=2)
    assert report.ok
    assert report.witness_failures == 0
    report = verify_covering_lp("lp", 3, 2.0, 2, samples=300, seed=2)
    assert report.ok
    assert sum(report.shell_levels.values()) == 300


def test_verify_covering_lp_k_zero():
    report = verify_covering_lp("lp", 2, 3.0, 0, samples=100, seed=4)
    assert report.ok
    assert report.shell_levels == {0: 100}


def test_verify_covering_lp_broken_witness_fails(broken_witnesses):
    report = verify_covering_lp("qlp", 2, 2.0, 1, samples=60, seed=5)
    assert not report.ok
    assert report.witness_failures == 60
    report = verify_covering_lp("lp", 2, 2.0, 1, samples=60, seed=5)
    assert not report.ok
    assert report.witness_failures == 60
    report = verify_covering_lp("lp", 3, 3.0, 2, samples=20, seed=42)
    assert not report.ok
    assert report.witness_failures == 20
    # The shifted residual's term 2.0 ** 2000 overflows a float: a failure, not a crash.
    report = verify_covering_lp("lp", 2, 2000.0, 1, samples=20, seed=1)
    assert not report.ok
    assert report.witness_failures == 20


def test_verify_covering_lp_reduces_to_exact_at_p1():
    via_lp = verify_covering_lp("qlp", 3, 1.0, 2, samples=100, seed=5)
    direct = verify_covering_exact("simplex", 3, 2, samples=100, seed=5)
    assert via_lp.to_dict() == direct.to_dict()
    via_lp = verify_covering_lp("lp", 2, 1.0, 1, samples=100, seed=6)
    direct = verify_covering_exact("crosspolytope", 2, 1, samples=100, seed=6)
    assert via_lp.to_dict() == direct.to_dict()
    via_lp = verify_covering_lp("simplex", 3, 1.0, 2, samples=100, seed=5)
    direct = verify_covering_exact("simplex", 3, 2, samples=100, seed=5)
    assert via_lp.to_dict() == direct.to_dict()
    via_lp = verify_covering_lp("crosspolytope", 2, 1.0, 1, samples=100, seed=6)
    direct = verify_covering_exact("crosspolytope", 2, 1, samples=100, seed=6)
    assert via_lp.to_dict() == direct.to_dict()


def test_verify_covering_lp_validation():
    with pytest.raises(ValueError):
        verify_covering_lp("simplex", 2, 2.0, 1)
    with pytest.raises(ValueError):
        verify_covering_lp("lp", 2, 0.5, 1)
    with pytest.raises(ValueError) as lp_error:
        verify_covering_lp("lp", 0, 2.0, 1)
    with pytest.raises(ValueError) as exact_error:
        verify_covering_exact("simplex", 0, 1)
    assert str(lp_error.value) == str(exact_error.value)


def test_verify_covering_exact_refuses_curved_families():
    for family in ("qlp", "lp"):
        with pytest.raises(ValueError,
                           match="exact verification covers simplex and crosspolytope"):
            verify_covering_exact(family, 3, 1)


def test_both_verifiers_default_to_1000_samples():
    # The same p = 1 verification draws the same samples from either entry point.
    via_lp = verify_covering_lp("simplex", 3, 1.0, 1)
    direct = verify_covering_exact("simplex", 3, 1)
    assert via_lp.samples == direct.samples == 1000
    assert via_lp.to_dict() == direct.to_dict()
    curved = verify_covering_lp("qlp", 2, 2.0, 1)
    assert curved.samples == sum(curved.shell_levels.values()) == 1000


def test_verify_covering_lp_refuses_an_unresolved_scale():
    # Past p * 2^-53 = TOL an ulp of the float scale moves scale**p by
    # more than the membership slack.
    p_max = bodies.TOL * 2.0**53
    assert verify_covering_lp("lp", 3, p_max, 3, samples=20).ok
    for p in (math.nextafter(p_max, math.inf), 1e16, 1e308):
        for family in ("qlp", "lp"):
            with pytest.raises(ValueError, match=r"^p = .* is too large to verify"):
                verify_covering_lp(family, 3, p, 3, samples=20)
    # Only verification is refused: bounds and sampling keep their range.
    assert gamma_upper_bound("lp", 3, 1e16, 3).m == lattice_sets.count(
        LatticeSetSpec(lattice_sets.M2, 3, 3))
    assert len(bodies.sample_boundary(bodies.BodySpec("lp", 3, 1e16), 5, 1)) == 5


def test_gamma_upper_bound_simplex():
    bound = gamma_upper_bound("simplex", 3, 1.0, 1)
    assert bound.m == 4
    assert bound.rho == Fraction(3, 4)
    assert isinstance(bound.rho, Fraction)
    bound = gamma_upper_bound("simplex", 4, 1.0, 2)
    assert bound.m == 15
    assert bound.rho == Fraction(2, 3)


def test_gamma_upper_bound_crosspolytope():
    bound = gamma_upper_bound("crosspolytope", 3, 1.0, 1)
    assert bound.m == 7
    assert bound.rho == Fraction(3, 4)


def test_gamma_upper_bound_lp():
    bound = gamma_upper_bound("qlp", 2, 2.0, 2)
    assert bound.m == 6
    assert bound.rho == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert isinstance(bound.rho, float)
    bound = gamma_upper_bound("lp", 3, 2.0, 1)
    assert bound.m == 7
    assert bound.rho == pytest.approx(math.sqrt(3 / 4), abs=1e-12)


def test_gamma_rho_certified_by_t_sequence():
    # the certified inflation factor dominates the advertised shrink
    for n in (2, 3, 5):
        for p in (1.5, 2.0):
            for k in (1, 2, 3):
                ts = t_sequence(n, p, k)
                rho = gamma_upper_bound("lp", n, p, k).rho
                assert 1.0 / ts.values[k] <= rho + 1e-12


def test_gamma_upper_bound_k_zero_is_identity():
    bound = gamma_upper_bound("simplex", 4, 1.0, 0)
    assert bound.m == 1
    assert bound.rho == 1


def test_gamma_upper_bound_validation():
    with pytest.raises(ValueError):
        gamma_upper_bound("nope", 3, 1.0, 1)
    with pytest.raises(ValueError):
        gamma_upper_bound("simplex", 3, 1.0, -1)
    with pytest.raises(ValueError):
        gamma_upper_bound("simplex", 3, 2.0, 1)
