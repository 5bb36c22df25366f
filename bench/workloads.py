"""The benchmark's three workloads, each a fixed list of CLI operations.

Every workload is a closed loop of one client: the harness sends the
next operation only after the previous one has returned.  The workload
seed derives the per-operation inputs (the verifier's ``--seed``, and
the small seed-dependent arguments of ``thresholds``); the program only
ever sees the generated argv.  The sizes and formats of the heavy
operations do not depend on the seed, so every seed asks for the same
amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Op:
    """One CLI invocation: subcommand plus its options, in argv order."""

    command: str
    params: tuple  # ((option, value), ...)

    @property
    def argv(self) -> list[str]:
        out = [self.command]
        for key, value in self.params:
            out += [f"--{key}", str(value)]
        return out

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def get(self, name, default=None):
        return dict(self.params).get(name, default)


def op(command: str, **params) -> Op:
    return Op(command, tuple((k.replace("_", "-"), v) for k, v in params.items()))


def _verify(rng, body, n, k, samples, fmt, p=None):
    extra = {} if p is None else {"p": p}
    return op("verify-cover", body=body, n=n, k=k, **extra, samples=samples,
              seed=rng.randrange(1 << 31), format=fmt)


def exact_sweep(rng: random.Random) -> list[Op]:
    """Mid-size exact coverings with few samples, plus two enumerations.

    The exhaustive translate sweep (enumeration, vertex lists, exact
    membership at integer vertices) does almost all the work; sampling
    does almost none.
    """
    ops = []
    for i, (n, k) in enumerate([(4, 4), (5, 3), (5, 4), (6, 3), (6, 4), (7, 3)]):
        ops.append(_verify(rng, "crosspolytope", n, k, 50, ("json", "plain")[i % 2]))
    for i, (n, k) in enumerate([(6, 6), (8, 5), (10, 4), (12, 3)]):
        ops.append(_verify(rng, "simplex", n, k, 50, ("plain", "json")[i % 2]))
    ops.append(op("enumerate", set="m1", n=8, k=9, format="plain"))   # 24310 points
    ops.append(op("enumerate", set="m2", n=5, k=8, format="json"))    # 13073 points
    return ops


def sample_witness(rng: random.Random) -> list[Op]:
    """Large n, small k: sampling, decomposition and l_p peeling dominate.

    Exact membership here sees non-integer rational residuals, whereas
    exact-sweep feeds it integer vertices.
    """
    ops = []
    for body in ("simplex", "crosspolytope"):
        for i, n in enumerate((16, 20, 24)):
            ops.append(_verify(rng, body, n, 1, 600, ("json", "plain")[i % 2]))
    for body in ("qlp", "lp"):
        for i, p in enumerate((1.5, 2.5, 4.0)):
            ops.append(_verify(rng, body, 12, 4, 4000, ("plain", "json")[i % 2], p=p))
    return ops


def thresholds(rng: random.Random) -> list[Op]:
    """Exact threshold searches against 2^n plus the small table commands.

    The heavy converge rows are fixed; the seed adds one small dimension
    to each table and picks the arguments of the count and bound ops.
    """
    small = rng.randrange(40, 200)
    ops = [
        op("converge", body="crosspolytope", n_list=f"{small},256,512,1024,1500", format="csv"),
        op("converge", body="simplex", n_list=f"{small},1024,2048,4096,8192", format="plain"),
        op("converge", body="lp", n_list=f"{small},384,768,1152", p=2.0, format="json"),
        op("converge", body="qlp", n_list=f"{small},3000,6000", p=3.0, format="csv"),
        op("count", set="m2", n=rng.randrange(100, 400), k=rng.randrange(20, 120), format="json"),
        op("count", set="m1", n=rng.randrange(100, 400), k=rng.randrange(20, 120), format="csv"),
        op("count", set="m2", n=rng.randrange(10, 60), k=rng.randrange(1, 30), format="plain"),
    ]
    for i, body in enumerate(("simplex", "crosspolytope", "qlp", "lp")):
        p = 1.0 if i < 2 else rng.choice((1.5, 2.0, 3.0))
        ops.append(op("gamma-bound", body=body, n=rng.randrange(2, 60),
                      k=rng.randrange(0, 20), p=p, format=("plain", "json", "csv")[i % 3]))
    ops += [
        op("tnpk", n=5, p=2.5, k=20, format="plain"),
        op("tnpk", n=8, p=1.0, k=10, format="json"),
        op("tnpk", n=3, p=4.0, k=12, format="csv"),
        op("constants", format="plain"),
        op("constants", format="json"),
        op("constants", format="csv"),
        op("rz-bound", n=100, r=0.3, variant="remark", format="plain"),
        op("rz-bound", n=60, r=0.75, variant="intro", format="json"),
    ]
    return ops


WORKLOADS = {
    "exact-sweep": exact_sweep,
    "sample-witness": sample_witness,
    "thresholds": thresholds,
}


def build(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(seed))
