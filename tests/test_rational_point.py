"""bodies.RationalPoint, the exact point nums[i]/den, against its Fractions."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hadcover
from hadcover import bodies, covering
from hadcover.bodies import CROSSPOLYTOPE, SIMPLEX, BodySpec, RationalPoint, contains_exact
from hadcover.covering import decompose_crosspolytope, decompose_simplex

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=300)

points = st.tuples(st.lists(st.integers(-40, 40), min_size=1, max_size=6),
                   st.integers(1, 30))


def _outcome(fn, *args):
    """fn's result, or the message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@SETTINGS
@given(points)
def test_reads_as_the_tuple_of_its_fractions(case):
    nums, den = case
    point, fractions = RationalPoint(nums, den), tuple(Fraction(a, den) for a in nums)
    assert point == fractions and fractions == point and not point != fractions
    assert (hash(point), repr(point), len(point)) == (hash(fractions), repr(fractions),
                                                      len(fractions))
    assert list(point) == list(fractions)
    assert all(type(c) is Fraction for c in point)
    assert [point[i] for i in range(-len(nums), len(nums))] == [
        fractions[i] for i in range(-len(nums), len(nums))]
    assert point[1:3] == fractions[1:3] and point[::-1] == fractions[::-1]
    assert point == RationalPoint([3 * a for a in nums], 3 * den)
    assert point != fractions + (Fraction(0),) and point != list(fractions)


@SETTINGS
@given(points, st.integers(0, 3))
def test_exact_functions_agree_on_the_point_and_its_fractions(case, k):
    nums, den = case
    n = len(nums)
    point, fractions = RationalPoint(nums, den), tuple(Fraction(a, den) for a in nums)
    for family in (SIMPLEX, CROSSPOLYTOPE):
        for scale in (Fraction(1), Fraction(n + k, n)):
            body = BodySpec(family, n, scale=scale)
            assert contains_exact(body, point) == contains_exact(body, fractions)
    for decompose in (decompose_simplex, decompose_crosspolytope):
        exact, plain = _outcome(decompose, n, k, point), _outcome(decompose, n, k, fractions)
        assert exact == plain
        if isinstance(exact, covering.WitnessDecomposition):
            assert isinstance(exact.residual, RationalPoint)
            assert exact.residual.den == den


def test_bad_numerators_and_denominators_are_refused():
    for nums in ([1.0], [Fraction(1, 2)], ["1"], [None], [1, 2.5]):
        with pytest.raises(ValueError, match="numerators must be ints"):
            RationalPoint(nums, 1)
    for den in (0, -1, 1.5, Fraction(2), "2", None):
        with pytest.raises(ValueError, match="den must be a positive int"):
            RationalPoint([1, 2], den)


def test_is_read_only_and_copies_as_itself():
    point = RationalPoint([1, -2, 0], 4)
    with pytest.raises(AttributeError):
        point.den = 2
    with pytest.raises(TypeError):
        point[0] = Fraction(1)
    for clone in (copy.copy(point), copy.deepcopy(point), pickle.loads(pickle.dumps(point))):
        assert (clone.nums, clone.den) == ((1, -2, 0), 4)
    assert hadcover.RationalPoint is RationalPoint


def test_exact_samples_are_rational_points():
    for body in (BodySpec(SIMPLEX, 3, scale=Fraction(3, 2)),
                 BodySpec(CROSSPOLYTOPE, 4, scale=Fraction(9, 10))):
        for point in bodies.sample_boundary(body, 20, 3):
            assert type(point) is RationalPoint and len(point.nums) == body.n


def test_verification_rechecks_y_minus_z_not_the_witness_residual(monkeypatch):
    # A witness whose residual is wrong but whose z is right still passes:
    # the loop forms y - z from the sample and z itself.
    for name in ("decompose_simplex", "decompose_crosspolytope"):
        decompose = getattr(covering, name)

        def garbled(n, k, y, decompose=decompose):
            witness = decompose(n, k, y)
            return witness._replace(residual=RationalPoint([10**9] * n, 1))

        monkeypatch.setattr(covering, name, garbled)
    for family in (SIMPLEX, CROSSPOLYTOPE):
        report = covering.verify_covering_exact(family, 4, 2, samples=50, seed=3)
        assert report.ok and report.witness_failures == 0
