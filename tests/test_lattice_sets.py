import itertools

import pytest

from hadcover.lattice_sets import LatticeSetSpec, count, enumerate_points, member
import oracles


def test_enumerate_m1_small():
    spec = LatticeSetSpec("m1", 2, 1)
    assert list(enumerate_points(spec)) == [(0, 0), (0, 1), (1, 0)]


def test_enumerate_m2_small():
    spec = LatticeSetSpec("m2", 2, 1)
    assert list(enumerate_points(spec)) == [
        (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0),
    ]


def test_enumerate_m2_point_count_example():
    spec = LatticeSetSpec("m2", 3, 2)
    points = list(enumerate_points(spec))
    assert len(points) == 25
    assert (0, -1, 1) in points


def test_enumeration_matches_box_oracle():
    for n in range(1, 5):
        for k in range(4):
            got_m1 = list(enumerate_points(LatticeSetSpec("m1", n, k)))
            got_m2 = list(enumerate_points(LatticeSetSpec("m2", n, k)))
            assert got_m1 == oracles.box_points_m1(n, k)
            assert got_m2 == oracles.box_points_m2(n, k)


def test_stream_sorted_unique_member_and_count():
    for kind in ("m1", "m2"):
        for n in range(1, 7):
            for k in range(6):
                spec = LatticeSetSpec(kind, n, k)
                points = list(enumerate_points(spec))
                assert points == sorted(points)
                assert len(points) == len(set(points)) == count(spec)
                assert all(member(spec, z) for z in points)


def test_member_examples():
    assert member(LatticeSetSpec("m1", 3, 2), (1, 0, 1))
    assert not member(LatticeSetSpec("m1", 3, 2), (1, -1, 1))
    assert not member(LatticeSetSpec("m1", 3, 2), (2, 0, 1))
    assert member(LatticeSetSpec("m2", 3, 2), (1, -1, 0))
    assert not member(LatticeSetSpec("m2", 3, 2), (1, -1, 1))


def test_member_matches_the_enumerated_set():
    # Every z of the box [-k-1, k+1]^n, one step past the set on each side.
    for kind in ("m1", "m2"):
        for n in range(1, 4):
            for k in range(4):
                spec = LatticeSetSpec(kind, n, k)
                points = set(enumerate_points(spec))
                for z in itertools.product(range(-k - 1, k + 2), repeat=n):
                    assert member(spec, z) == (z in points), (spec, z)


def test_m1_is_subset_of_m2():
    for n in range(1, 5):
        for k in range(4):
            m2 = LatticeSetSpec("m2", n, k)
            for z in enumerate_points(LatticeSetSpec("m1", n, k)):
                assert member(m2, z)


def test_k_zero_is_origin_only():
    for kind in ("m1", "m2"):
        for n in (*range(1, 5), 1500):
            spec = LatticeSetSpec(kind, n, 0)
            assert list(enumerate_points(spec)) == [(0,) * n]


def test_validation():
    with pytest.raises(ValueError):
        LatticeSetSpec("m3", 2, 1)
    with pytest.raises(ValueError):
        LatticeSetSpec("m1", 0, 1)
    with pytest.raises(ValueError):
        LatticeSetSpec("m1", 2, -1)
    with pytest.raises(ValueError):
        member(LatticeSetSpec("m1", 2, 1), (0, 0, 0))
