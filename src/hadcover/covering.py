"""Constructive covering witnesses, l_p scale recurrences, and gamma bounds.

The blown-up body ((n+k)/n) * body is covered by integer translates of
the normalized body.  For the polytopal families the witness is exact:
every point y splits as y = z + r with z in the translation set and r
back in the normalized body.  For p > 1 a peeling argument moves y into
the normalized body one unit step at a time, certified by the scale
sequence t_{n,p,k}.  Float membership uses the fixed relative slack
``bodies.TOL``, and the scale bisection stops at ``asymptotics.DEFAULT_TOL``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Sequence, Union

from . import asymptotics, bodies, lattice_sets
from .bodies import BodySpec, CROSSPOLYTOPE, LP, SIMPLEX
from .lattice_sets import LatticeSetSpec

# Most checks one verification may start: |M|·|V| translate vertices
# plus samples·n sampled coordinates.  The sweep checks about 3.7
# million vertices per second, so this is about 30 s.
MAX_CHECKS = 10**8


@dataclass(frozen=True)
class WitnessDecomposition:
    """A translate z plus residual y - z certifying that y is covered."""

    z: tuple[int, ...]
    residual: tuple
    shell_level: int


@dataclass(frozen=True)
class TSequence:
    """Certified scale factors t_{n,p,0..k}; exact Fractions when p = 1."""

    n: int
    p: float
    values: tuple


@dataclass(frozen=True)
class GammaBound:
    """m translates of rho * body suffice to cover the body."""

    m: int
    rho: Union[Fraction, float]
    body: BodySpec


@dataclass
class CoveringReport:
    """Outcome of a sampled covering verification.

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
    witness_failures: int = 0
    translate_failures: int = 0
    translates_checked: int = 0
    shell_levels: dict = field(default_factory=dict)
    ok: bool = True

    def to_dict(self) -> dict:
        out = asdict(self)
        levels = out.pop("shell_levels")
        out["success_rate"] = (self.samples - self.witness_failures) / self.samples
        out["shell_levels"] = {str(level): levels[level] for level in sorted(levels)}
        out["ok"] = out.pop("ok")  # last, after the derived keys
        return out


def decompose_simplex(n: int, k: int, y: Sequence) -> WitnessDecomposition:
    """Split y in ((n+k)/n) * simplex as z + residual with z in M1(n, k)."""
    return _decompose(_scaled(_inflated, SIMPLEX, n, k), y)


def decompose_crosspolytope(n: int, k: int, y: Sequence) -> WitnessDecomposition:
    """Split y in ((n+k)/n) * cross-polytope as z + residual, z in M2(n, k)."""
    return _decompose(_scaled(_inflated, CROSSPOLYTOPE, n, k), y)


@functools.lru_cache(maxsize=8)
def _scaled(inflate, family: str, n: int, k: int) -> BodySpec:
    """inflate(BodySpec(family, n), k); keyed on inflate, so no patch reads a stale body."""
    return inflate(BodySpec(family, n), k)


def _decompose(scaled: BodySpec, y: Sequence) -> WitnessDecomposition:
    """The exact witness for both polytopal families, greedy on |y|.

    The required budget is m = max(0, ceil(sum |y_i|) - n); coordinate
    floors of |y| always sum to at least m, so a greedy scan assigning
    |z_i| = min(floor |y_i|, remaining budget) ends with sum |z_i| = m
    and leaves the residual inside the normalized body.  Each z_i takes
    the sign of y_i.  The arithmetic is on the integers |y_i| * D, D the
    lcm denominator, that bodies._exact_magnitudes decided membership
    on.  The scan stops at a spent budget and writes only where z_i != 0.
    """
    inside = bodies._exact_magnitudes(scaled, y)
    if inside is None:
        raise ValueError(f"point lies outside the scaled {scaled.family}")
    den, mags = inside
    needed = max(0, -(-sum(mags) // den) - scaled.n)
    z, residual, remaining = [0] * scaled.n, list(y), needed
    for i, m in enumerate(mags):
        if not remaining:
            break
        take = min(m // den, remaining)
        if take:
            z[i] = take if y[i].numerator >= 0 else -take
            residual[i] -= z[i]
            remaining -= take
    if remaining:
        # The shell argument guarantees enough integer mass; reaching
        # here means the decomposition itself is broken.
        raise AssertionError("floor sum below required budget")
    return WitnessDecomposition(tuple(z), tuple(residual), needed)


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
    the base body (within bodies.TOL for curved bodies).  Polytopal
    bodies then get the exhaustive translate sweep, _sweep: every
    translate vertex z + c*e_i is checked in integers at O(1) from the
    l1 sum of z (symmetric bodies) or its coordinate sum and count of
    negative coordinates (nonnegative bodies).  Module functions are
    looked up at call time, so wrappers see them.  Before any of this,
    a run of more than MAX_CHECKS checks (translate vertices, from the
    exact count of the translation set, plus samples times n, or for a
    curved body samples times n times the k + 1 peel steps) is refused.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    spec = _translation_set(base, k)
    n = base.n
    # len(bodies.axis_vertices(base)), without building the list.
    vertices = (n + 1 if base.nonnegative else 2 * n) if base.is_polytopal else 0
    translates = lattice_sets.count(spec) if vertices else 0
    # A curved sample is peeled by up to k moves and k + 1 membership tests, each O(n).
    steps = 1 if vertices else k + 1
    checks = translates * vertices + samples * n * steps
    if checks > MAX_CHECKS:
        sweep = f"{translates} translates x {vertices} vertices + " if vertices else ""
        peel = "" if vertices else f" x k + 1 = {steps}"
        raise ValueError(f"verification needs {checks} checks ({sweep}{samples} samples "
                         f"x n = {n}{peel}), over the budget of {MAX_CHECKS}")
    scaled = _inflated(base, k)
    report = CoveringReport(
        kind=f"{spec.kind}-{base.family}", n=n, k=k, p=base.p, samples=samples, seed=seed
    )
    if base.is_polytopal:
        decompose = decompose_simplex if base.nonnegative else decompose_crosspolytope
        inside = bodies.contains_exact
    else:
        decompose = functools.partial(_peel, base)
        inside = bodies.contains_float

    for y in bodies.sample_boundary(scaled, samples, seed):
        witness = decompose(n, k, y)
        residual = [c - w if w else c for c, w in zip(y, witness.z)]
        if not (lattice_sets.member(spec, witness.z) and inside(base, residual)):
            report.witness_failures += 1
        level = witness.shell_level
        report.shell_levels[level] = report.shell_levels.get(level, 0) + 1

    if base.is_polytopal:
        report.translates_checked, report.translate_failures = _sweep(base, scaled, spec)

    report.ok = report.witness_failures == 0 and report.translate_failures == 0
    return report


def _sweep(base: BodySpec, scaled: BodySpec, spec: LatticeSetSpec) -> tuple[int, int]:
    """(translates, translate vertices outside scaled), over every pair.

    Each base vertex is c*e_i or the origin, read as (i, c) from
    bodies.axis_vertices, so the translate vertex z + c*e_i differs
    from z at i only: its defining sum and its count of negative
    coordinates follow from those of z in O(1).  The sums are integers,
    inside exactly when at most floor(scaled.bound), whatever rational
    scale the body has.
    """
    limit = math.floor(scaled.bound)
    steps = bodies.axis_vertices(base)
    checked = failures = 0
    points = lattice_sets.enumerate_points(spec)
    if base.nonnegative:
        for z in points:
            checked += 1
            total = sum(z)
            negatives = sum(1 for x in z if x < 0)
            failures += sum(1 for i, c in steps if total + c > limit
                            or negatives - (z[i] < 0) + (z[i] + c < 0))
    else:
        for z in points:
            checked += 1
            slack = limit - sum(map(abs, z))
            failures += sum(1 for i, c in steps if abs(z[i] + c) - abs(z[i]) > slack)
    return checked, failures


def _peel(base: BodySpec, n: int, k: int, y: Sequence[float]) -> WitnessDecomposition:
    """Peel y into the curved base body with at most k unit moves.

    Each move shifts the largest-magnitude coordinate one unit toward
    zero.  Outside the body that coordinate exceeds 1 in magnitude, so
    each subtraction is exact and the residual equals y - z bit for bit.
    The shell level is the number of moves.  The terms |x_i|^p are
    computed once, each move recomputes its own, and bodies._float_inside
    decides every step on them, bit for bit as contains_float would.
    """
    x = list(y)
    z = [0] * n
    moves = 0
    mags = [abs(float(c)) for c in x]
    terms = list(map(pow, mags, repeat(base.p)))
    while moves < k and not bodies._float_inside(base, x, terms):
        i = mags.index(max(mags))
        step = 1 if x[i] >= 0 else -1
        x[i] -= step
        z[i] += step
        moves += 1
        mags[i] = abs(float(x[i]))
        terms[i] = mags[i] ** base.p
    return WitnessDecomposition(tuple(z), tuple(x), moves)


def t_sequence(n: int, p: float, k_max: int) -> TSequence:
    """Certified scale factors for the l_p peeling, t_0 = 1 upward.

    Each t_{k+1} is the unique root above t_k of
    (t - 1)^p + (n - 1) t^p = n t_k^p.  For p = 1 the recurrence
    linearizes and t_k = (n + k)/n exactly.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    BodySpec(LP, n, p)  # rejects p that is not finite or below 1
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if p == 1:
        return TSequence(n, p, tuple(Fraction(n + j, n) for j in range(k_max + 1)))
    values = [1.0]
    try:
        for _ in range(k_max):
            rhs = n * values[-1] ** p
            values.append(_next_scale(n, p, values[-1], rhs))
    except OverflowError:
        raise ValueError("p is too large: the scale search overflows a float") from None
    return TSequence(n, p, tuple(values))


def _next_scale(n: int, p: float, t_prev: float, rhs: float) -> float:
    def g(t: float) -> float:
        return (t - 1.0) ** p + (n - 1) * t**p - rhs

    # g(t_prev + 1) = (n - 1)((t_prev + 1)^p - t_prev^p) > 0: the root lies below.
    lo, hi = t_prev, t_prev + 1.0
    while hi - lo > asymptotics.DEFAULT_TOL:
        mid = (lo + hi) / 2.0
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def verify_covering_lp(
    family: str,
    n: int,
    p: float,
    k: int,
    samples: int = 500,
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
