"""Constructive covering witnesses, l_p scale recurrences, and gamma bounds.

The blown-up body ((n+k)/n) * body is covered by integer translates of
the normalized body.  For the polytopal families the witness is exact:
every point y splits as y = z + r with z in the translation set and r
back in the normalized body.  For p > 1 a peeling argument moves y into
the normalized body one unit step at a time, certified by the scale
sequence t_{n,p,k}.  Float membership uses the fixed relative slack
``bodies.TOL``; the scale bisection stops at ``asymptotics.DEFAULT_TOL`` in t
once t**p is within ``bodies.TOL``.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import repeat
from operator import mul, sub
from typing import NamedTuple, Sequence, Union

from . import asymptotics, bodies, combinatorics, lattice_sets
from .bodies import BodySpec, CROSSPOLYTOPE, LP, RationalPoint, SIMPLEX
from .lattice_sets import LatticeSetSpec

# Most checks one verification may start: samples·n sampled coordinates,
# each counted as SAMPLE_WEIGHT checks for an exact body and CURVED_WEIGHT
# + k + 1 for a curved one, plus (k + 1)·(min(n, k) + 10) for the level
# count of the sweep.  Its slowest admitted sweep, n = 1 at k = 9,090,901
# with one sample, takes about 5 s on one core; n = k = 9,959 takes
# 0.25 s; samples·n = 1,400,000 exact coordinates (--body crosspolytope
# --n 100000 --k 1 --samples 14) take about 1.8 s; and 5,000,000 curved
# coordinates at k = 0 would take about 6 s at the rate below.
MAX_CHECKS = 10**8
# Sweep checks per exact sampled coordinate, measured on Python 3.11 (one
# core of a 2-CPU host): a coordinate costs about 0.6-0.9 us, most of it
# the sampler's random draws (verify-cover --body crosspolytope or
# simplex --n 100000 --k 1, --samples 8 less --samples 4, over 400,000
# coordinates), a sweep check about 0.056-0.065 us (--body simplex --n 1
# --k 1000000 --samples 1, 11,000,012 checks, less the start-up of a
# k = 1 run).  That is 10-15 checks; 70 was set when a coordinate took
# 4.2 us in Fractions and is kept, now conservative, so every refusal
# stays where it was: --samples 999 at n = 100000 is still refused.
SAMPLE_WEIGHT = 70
# Sweep checks to draw and re-check a curved sampled coordinate, on the
# scale of SAMPLE_WEIGHT; its peel adds k + 1.  A coordinate costs about
# 1.2-1.3 us (verify-cover --body lp --k 0 --p 2 at n = 10^5, 3 * 10^5
# and 10^6, --samples 4 less --samples 1), 19-21 checks at 0.062 us,
# so at k = 0 it is charged 20 and --n 99000000 --samples 1, minutes of
# drawing one sample, is refused.
CURVED_WEIGHT = 19
# Most sampled coordinates a verification holds at once: it draws its
# samples in blocks of max(1, _SAMPLE_BLOCK // n) from one random stream.
_SAMPLE_BLOCK = 4096
# Most scale steps one t_sequence may take.  A p > 1 step is a float bisection
# of 20-35 us, slower as t grows: 3.1-3.3 s at k = 10^5 for (n, p) = (3, 2),
# (2, 1.01) and (1000, 3) (Python 3.11, one core of a 2-CPU host); p = 1, 2 us.
MAX_SCALE_STEPS = 10**5


class WitnessDecomposition(NamedTuple):
    """A translate z plus residual y - z certifying that y is covered."""

    z: tuple[int, ...]
    residual: tuple
    shell_level: int


class TSequence(NamedTuple):
    """Certified scale factors t_{n,p,0..k}; exact Fractions when p = 1."""

    n: int
    p: float
    values: tuple


class GammaBound(NamedTuple):
    """m translates of rho * body suffice to cover the body."""

    m: int
    rho: Union[Fraction, float]
    body: BodySpec


class CoveringReport(NamedTuple):
    """Outcome of a sampled covering verification, built once at its end.

    witness_failures counts sampled points without a valid witness;
    translate_failures counts translate vertices escaping the scaled
    body (exact check, polytopal families only); shell_levels histograms
    where the decomposition placed each sample.
    """

    kind: str
    n: int
    k: int
    p: float
    samples: int
    seed: int
    witness_failures: int
    translate_failures: int
    translates_checked: int
    shell_levels: dict
    ok: bool

    def to_dict(self) -> dict:
        out = self._asdict()
        levels = out.pop("shell_levels")
        out["success_rate"] = (self.samples - self.witness_failures) / self.samples
        out["shell_levels"] = {str(level): levels[level] for level in sorted(levels)}
        out["ok"] = out.pop("ok")  # last, after the derived keys
        return out


def decompose_simplex(n: int, k: int, y: Sequence) -> WitnessDecomposition:
    """Split y in ((n+k)/n) * simplex as z + residual with z in M1(n, k)."""
    return _decompose(n, k, y, nonnegative=True)


def decompose_crosspolytope(n: int, k: int, y: Sequence) -> WitnessDecomposition:
    """Split y in ((n+k)/n) * cross-polytope as z + residual, z in M2(n, k)."""
    return _decompose(n, k, y, nonnegative=False)


def _decompose(n: int, k: int, y: Sequence, nonnegative: bool) -> WitnessDecomposition:
    """The exact witness for both polytopal families, greedy on |y|.

    y lies in ((n+k)/n) * body exactly when its budget, the shell level
    m = max(0, ceil(sum |y_i|) - n), is at most k, n + k being an integer
    (and the simplex needs y >= 0).  Floors of |y_i| sum to at least m,
    so a greedy scan with |z_i| = min(floor |y_i|, remaining budget) and
    the sign of y_i leaves the residual in the normalized body.  It runs
    on the integers N_i over one D from bodies._exact_form and writes
    only where z_i != 0.  The residual y - z is the RationalPoint
    (N - z * D) / D for a RationalPoint y, and keeps the int or Fraction
    type of each coordinate of any other y.
    """
    if n < 1:
        raise ValueError("dimension n must be >= 1")
    point = bodies._exact_form(n, nonnegative, y)
    if point is not None:
        nums, den = point.nums, point.den
        needed = max(0, -(-sum(map(abs, nums)) // den) - n)
    if point is None or needed > k:
        raise ValueError(f"point lies outside the scaled "
                         f"{SIMPLEX if nonnegative else CROSSPOLYTOPE}")
    z, rest, remaining = [0] * n, list(nums), needed
    for i, a in enumerate(nums):
        if not remaining:
            break
        take = min(abs(a) // den, remaining)
        if take:
            z[i] = take if a >= 0 else -take
            rest[i] -= z[i] * den
            remaining -= take
    if remaining:
        # The shell argument guarantees enough integer mass; reaching
        # here means the decomposition itself is broken.
        raise AssertionError("floor sum below required budget")
    if isinstance(y, RationalPoint):
        residual = RationalPoint(rest, den)
    else:  # y's own ints and Fractions, as a Fraction greedy leaves them
        residual = tuple(c - w if w else c for c, w in zip(y, z))
    return WitnessDecomposition(tuple(z), residual, needed)


def _translation_set(body: BodySpec, k: int) -> LatticeSetSpec:
    """M1 covers the nonnegative bodies, M2 the centrally symmetric ones."""
    kind = lattice_sets.M1 if body.nonnegative else lattice_sets.M2
    return LatticeSetSpec(kind, body.n, k)


def _inflated(base: BodySpec, k: int) -> BodySpec:
    """base scaled by ((n+k)/n)^(1/p), the body its k-th lattice covering covers.

    A float scale is off by about an ulp, 2^-53 relative, which moves
    scale^p by about p * 2^-53.  Past bodies.TOL that error outgrows the
    membership slack, so such a p is refused.
    """
    if not base.is_polytopal and base.p * 2.0**-53 > bodies.TOL:
        raise ValueError(f"p = {base.p!r} is too large to verify: the float "
                         f"scale**p is not resolved within {bodies.TOL!r}")
    return base.rescaled(base.pth_root(base.n + k, base.n))


def verify_covering_exact(
    family: str,
    n: int,
    k: int,
    samples: int = 1000,
    seed: int = 42,
) -> CoveringReport:
    """Check both inclusions of the exact covering identity by sampling.

    Every sampled point of the scaled body must decompose into a valid
    witness (zero failures allowed), and every translate vertex must lie
    inside the scaled body, exhaustively over the translation set.
    """
    if family not in (SIMPLEX, CROSSPOLYTOPE):
        raise ValueError("exact verification covers simplex and crosspolytope")
    return _verify(BodySpec(family, n), k, samples, seed)


def _verify(base: BodySpec, k: int, samples: int, seed: int) -> CoveringReport:
    """The verification loop behind both public verifiers.

    Samples come from the inflated base body.  Every witness of a sample
    y is re-checked from scratch: z in the translation set and y - z in
    the base body (within bodies.TOL for curved bodies).  y - z is formed
    from the sample and z, never from the witness's residual; an exact
    sample is a RationalPoint N / D, so its y - z is (N - z * D) / D and
    the whole loop runs on integers.  Polytopal
    bodies then get the translate sweep, _sweep, which counts the
    translate vertices outside the inflated body level by level instead
    of enumerating them.  Module functions are looked up at call time,
    so wrappers see them.  Before any of this, a run of more than
    MAX_CHECKS checks is refused: samples times n sampled coordinates,
    times SAMPLE_WEIGHT for a polytopal body or CURVED_WEIGHT plus the
    k + 1 peel steps for a curved one, plus for a polytopal body the
    k + 1 levels of the sweep at min(n, k) + 10 each.  The samples are
    drawn from one random.Random(seed) in blocks of at most _SAMPLE_BLOCK
    coordinates, or one sample, so memory holds one block at a time.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    spec = _translation_set(base, k)
    n, polytopal = base.n, base.is_polytopal
    # A sweep level is a few Python steps and one big-integer step whose
    # size grows with min(n, k).  An exact sampled coordinate is drawn,
    # decomposed and re-checked in integers.  A curved sample is drawn and
    # re-checked in floats, and peeled by up to k moves and k + 1
    # membership tests, each O(n).
    levels, width = (k + 1, min(n, k) + 10) if polytopal else (0, 0)
    steps = SAMPLE_WEIGHT if polytopal else CURVED_WEIGHT + k + 1
    checks = levels * width + samples * n * steps
    if checks > MAX_CHECKS:
        sweep = f"{levels} levels x min(n, k) + 10 = {width} + " if polytopal else ""
        weight = (f"{steps} per exact coordinate" if polytopal
                  else f"{CURVED_WEIGHT} + k + 1 = {steps} per curved coordinate")
        raise ValueError(f"verification needs {checks} checks ({sweep}{samples} samples "
                         f"x n = {n} x {weight}), over the budget of {MAX_CHECKS}")
    scaled = _inflated(base, k)
    if polytopal:
        decompose = decompose_simplex if base.nonnegative else decompose_crosspolytope
        inside = bodies.contains_exact
    else:
        decompose = functools.partial(_peel, base)
        inside = bodies.contains_float

    witness_failures, shells = 0, Counter()
    rng, block = random.Random(seed), max(1, _SAMPLE_BLOCK // n)
    for start in range(0, samples, block):
        for y in bodies.sample_boundary(scaled, min(block, samples - start), rng):
            witness = decompose(n, k, y)
            residual = _difference(y, witness.z)
            if not (lattice_sets.member(spec, witness.z) and inside(base, residual)):
                witness_failures += 1
            shells[witness.shell_level] += 1
        # The block's last sample would otherwise live on while the next is drawn.
        del y, witness, residual

    translates, translate_failures = _sweep(base, scaled, k) if polytopal else (0, 0)
    ok = witness_failures == 0 and translate_failures == 0
    return CoveringReport(f"{spec.kind}-{base.family}", n, k, base.p, samples, seed,
                          witness_failures, translate_failures, translates, shells, ok)


def _difference(y: Sequence, z: Sequence[int]) -> Sequence:
    """y - z, on the integers as (N - z * D) / D for an exact sample N / D."""
    if isinstance(y, RationalPoint):
        return RationalPoint(map(sub, y.nums, map(mul, z, repeat(y.den))), y.den)
    return [c - w if w else c for c, w in zip(y, z)]


def _sweep(base: BodySpec, scaled: BodySpec, k: int) -> tuple[int, int]:
    """(translates, translate vertices outside scaled), counted by levels.

    A translate vertex is z + c*e_i, c = +-n, or z for the simplex origin:
    inside iff |v + c| + s <= limit = floor(scaled.bound), v = z_i and s
    the l1 sum of the other coordinates.  N(j) translates have z_i = v and
    s <= j: C(n-1+j, j) for M1, D(n-1, j) for M2.  So the class (v, c) has
    N(k - |v|) - N(t) vertices outside, t = limit - |v + c|, per axis or
    once for the origin.  One row of N (count_row) gives those and the
    slice identity |M| = sum_v N(k - |v|), with O(1) big integers.
    """
    n, limit, signed = base.n, math.floor(scaled.bound), not base.nonnegative
    weight = Counter()  # failures = sum_j weight[j] * N(j), N(j < 0) = 0
    for v in range(-k if signed else 0, k + 1):
        for c in (n, -n) if signed else (n, 0):
            top, t = k - abs(v), limit - abs(v + c)
            if t < top:
                weight[top] += n if c else 1
                weight[t] -= n if c else 1
    translates = failures = 0
    for j, cur in zip(range(k + 1), combinatorics.count_row(signed, n - 1)):
        translates += 2 * cur if signed and j < k else cur  # v = +-(k - j)
        failures += weight.get(j, 0) * cur
    return translates, failures


def _peel(base: BodySpec, n: int, k: int, y: Sequence[float]) -> WitnessDecomposition:
    """Peel y into the curved base body with at most k unit moves.

    Each move shifts the largest-magnitude coordinate one unit toward
    zero.  Outside the body that coordinate exceeds 1 in magnitude, so
    each subtraction is exact and the residual equals y - z bit for bit.
    The shell level is the number of moves.  The terms |x_i|^p are
    computed once, each move recomputes its own, and bodies._float_inside
    decides every step on them, bit for bit as contains_float would.
    At k = 0 no move can be made, and nothing is copied.
    """
    if k == 0:
        return WitnessDecomposition((0,) * n, tuple(y), 0)
    x = list(y)
    z = [0] * n
    moves = 0
    # Moves choose by magnitude, not term: |x_i|^p underflows to 0 at large p.
    mags = list(map(abs, x))
    terms = list(map(pow, mags, repeat(base.p)))
    while moves < k and not bodies._float_inside(base, x, terms):
        i = mags.index(max(mags))
        step = 1 if x[i] >= 0 else -1
        x[i] -= step
        z[i] += step
        moves += 1
        mags[i] = abs(x[i])
        terms[i] = mags[i] ** base.p
    return WitnessDecomposition(tuple(z), tuple(x), moves)


def t_sequence(n: int, p: float, k_max: int) -> TSequence:
    """Scale factors for the l_p peeling, t_0 = 1 upward.

    Each t_{k+1} is the root above t_k of (t - 1)^p + (n - 1) t^p = n t_k^p,
    within bodies.TOL of n t_k^p, or ValueError where no float is (p past
    about TOL * 2^53).  For p = 1, t_k = (n + k)/n exactly.  A k_max past
    MAX_SCALE_STEPS is refused with ValueError before any step.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    BodySpec(LP, n, p)  # rejects p that is not finite or below 1
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if k_max > MAX_SCALE_STEPS:
        raise ValueError(f"k_max = {k_max} is over the budget of {MAX_SCALE_STEPS} scale steps")
    if p == 1:
        return TSequence(n, p, tuple(Fraction(n + j, n) for j in range(k_max + 1)))
    values = [1.0]
    for _ in range(k_max):
        values.append(_next_scale(n, p, values[-1], n * values[-1] ** p))
    return TSequence(n, p, tuple(values))


def _next_scale(n: int, p: float, t_prev: float, rhs: float) -> float:
    def g(t: float) -> float:
        try:
            return (t - 1.0) ** p + (n - 1) * t**p - rhs
        except OverflowError:  # past the float range, so above the finite rhs
            return math.inf

    # g(t_prev + 1) = (n - 1)((t_prev + 1)^p - t_prev^p) > 0: the root lies below.
    # Past DEFAULT_TOL in t, bisect on to adjacent floats until g is within TOL of rhs.
    lo, hi = t_prev, t_prev + 1.0
    while True:
        t = (lo + hi) / 2.0
        resolved = abs(r := g(t)) / rhs <= bodies.TOL
        if resolved and hi - lo <= asymptotics.DEFAULT_TOL or not lo < t < hi:
            break
        lo, hi = (t, hi) if r < 0 else (lo, t)
    if not resolved:  # also when rhs is inf: abs(r) / rhs is then nan
        raise ValueError(f"p is too large: t**p is not resolved within {bodies.TOL!r}")
    return t


def verify_covering_lp(
    family: str,
    n: int,
    p: float,
    k: int,
    samples: int = 1000,
    seed: int = 42,
) -> CoveringReport:
    """Peeling verification of the one-sided l_p covering inclusion.

    Each sampled point of ((n+k)/n)^(1/p) * body is pushed into the
    normalized body by repeatedly moving its largest-magnitude
    coordinate one unit toward zero; the accumulated lattice vector z
    must land in the matching translation set and y - z in the body.
    Only this inclusion is claimed for p > 1, so translates are not
    required to stay inside the scaled body.  Every family is accepted:
    simplex and crosspolytope are the p = 1 cases of qlp and lp, and
    p = 1 inputs route to the exact verifier.  p > 1 is refused where
    p * 2^-53 > bodies.TOL, about 9.0e6, as the float scale cannot be
    resolved there.
    """
    base = BodySpec(family, n, p)
    if base.is_polytopal:
        exact = SIMPLEX if base.nonnegative else CROSSPOLYTOPE
        return verify_covering_exact(exact, n, k, samples, seed)
    return _verify(base, k, samples, seed)


def gamma_upper_bound(family: str, n: int, p: float, k: int) -> GammaBound:
    """Covering-functional upper bound from the k-th lattice covering.

    Nonnegative bodies use the C(n+k, n) translates of M1, the
    centrally symmetric ones the m2(n, k) translates of M2; the shrink
    factor is (n/(n+k))^(1/p), exact when p = 1.
    """
    body = BodySpec(family, n, p)
    m = lattice_sets.count(_translation_set(body, k))
    return GammaBound(m, body.pth_root(n, n + k), body)
