"""Command-line front end: counts, enumeration, verification, and tables.

Output is deterministic: identical invocations produce byte-identical
output.  Counts print as decimal strings, exact rationals as num/den,
floats as their shortest round-trip repr.  Exit status 0 on success,
1 when a covering verification fails, 2 on invalid input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from . import asymptotics, covering, lattice_sets
from .bodies import FAMILIES, LP, QUARTER_LP

FORMATS = ("plain", "json", "csv")
# verify-cover's --p when omitted; simplex and crosspolytope are p = 1 bodies.
_DEFAULT_P = {QUARTER_LP: 2.0, LP: 2.0}


def _scalar(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _render(fmt: str, record: dict, rows=None, lines=None) -> None:
    """Print one command's result in the requested format.

    json prints the record; csv prints the header-first rows, or the
    plain lines when the command has no table; plain prints the lines,
    by default one ``key = value`` line per record item.  Lines may be a
    generator, so long listings stream.
    """
    if fmt == "json":
        print(json.dumps(record, sort_keys=True, separators=(",", ":")))
    elif fmt == "csv" and rows is not None:
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        if lines is None:
            lines = (f"{key} = {_scalar(value)}" for key, value in record.items())
        for line in lines:
            print(line)


def _cmd_count(args) -> int:
    value = lattice_sets.count(lattice_sets.LatticeSetSpec(args.set, args.n, args.k))
    record = {"set": args.set, "n": args.n, "k": args.k, "count": str(value)}
    _render(args.format, record, rows=[list(record), list(record.values())],
            lines=[value])
    return 0


def _cmd_enumerate(args) -> int:
    spec = lattice_sets.LatticeSetSpec(args.set, args.n, args.k)
    points = lattice_sets.enumerate_points(spec)
    record = {"set": args.set, "n": args.n, "k": args.k}
    if args.format == "json":
        record["points"] = [list(z) for z in points]
    _render(args.format, record, lines=(",".join(str(c) for c in z) for z in points))
    return 0


def _cmd_verify_cover(args) -> int:
    p = _DEFAULT_P.get(args.body, 1.0) if args.p is None else args.p
    report = covering.verify_covering_lp(args.body, args.n, p, args.k, args.samples,
                                         args.seed)
    d = report.to_dict()
    lines = [f"{key} = {_scalar(value)}" for key, value in d.items() if key != "ok"]
    _render(args.format, d, lines=lines + ["ok" if report.ok else "FAILED"])
    return 0 if report.ok else 1


def _cmd_gamma_bound(args) -> int:
    bound = covering.gamma_upper_bound(args.body, args.n, args.p, args.k)
    record = {"m": str(bound.m), "rho": _scalar(bound.rho)}
    _render(args.format, record, rows=[list(record), list(record.values())])
    return 0


def _cmd_tnpk(args) -> int:
    seq = covering.t_sequence(args.n, args.p, args.k)
    t = [_scalar(value) for value in seq.values]
    _render(args.format, {"n": args.n, "p": args.p, "t": t},
            rows=[["k", "t"], *enumerate(t)], lines=t)
    return 0


def _cmd_constants(args) -> int:
    consts = asymptotics.growth_constants()
    c_star, peak = asymptotics.printed_variant_max()
    report = {
        "c1": consts.c1,
        "c3": consts.c3,
        "c4": consts.c4,
        "c1_residual": asymptotics.m1_growth(consts.c1) - 2.0,
        "c3_residual": asymptotics.m2_upper_growth(consts.c3) / 2.0 - 1.0,
        "c4_residual": asymptotics.m2_lower_growth(consts.c4) / 2.0 - 1.0,
        "c4_variant": "binomial-entropy",
        "c4_alt_variant_max_at": c_star,
        "c4_alt_variant_max": peak,
        "c4_alt_variant_has_root": False,
    }
    keys = sorted(report)
    _render(args.format, report, rows=[keys, [_scalar(report[k]) for k in keys]])
    return 0


def _cmd_converge(args) -> int:
    n_list = [int(part) for part in args.n_list.split(",") if part]
    if not n_list:
        raise ValueError("--n-list must name at least one dimension")
    rows = asymptotics.convergence_table(args.body, n_list, args.p)
    record = {
        "family": args.body,
        "p": args.p,
        "rows": [{"n": r.n, "k": r.k, "ratio": r.ratio, "bound": r.bound} for r in rows],
    }
    _render(
        args.format, record,
        rows=[["n", "k", "ratio", "bound"]]
        + [[r.n, r.k, repr(r.ratio), repr(r.bound)] for r in rows],
        lines=[f"n={r.n} k={r.k} ratio={r.ratio!r} bound={r.bound!r}" for r in rows],
    )
    return 0


def _cmd_rz_bound(args) -> int:
    value = asymptotics.rogers_zong_bound(args.n, args.r, args.variant)
    record = {"n": args.n, "r": args.r, "variant": args.variant, "bound": value}
    _render(args.format, record, lines=[repr(value)])
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; callers share it."""
    shared = {
        "--set": dict(choices=(lattice_sets.M1, lattice_sets.M2), required=True),
        "--body": dict(choices=FAMILIES, required=True),
        "--n": dict(type=int, required=True),
        "--k": dict(type=int, required=True),
    }
    parser = argparse.ArgumentParser(
        prog="hadcover",
        description="Lattice coverings and covering-functional bounds for "
        "simplices, cross-polytopes, and l_p balls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, summary, *flags):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=FORMATS, default="plain")
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        return p

    add("count", _cmd_count, "count a translation set", "--set", "--n", "--k")
    add("enumerate", _cmd_enumerate, "list a translation set, one point per line",
        "--set", "--n", "--k")

    p = add("verify-cover", _cmd_verify_cover, "verify a covering by sampling",
            "--body", "--n", "--k")
    p.add_argument("--p", type=float)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)

    p = add("gamma-bound", _cmd_gamma_bound, "covering-functional upper bound",
            "--body", "--n", "--k")
    p.add_argument("--p", type=float, default=1.0)

    p = add("tnpk", _cmd_tnpk, "certified l_p scale sequence", "--n")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--k", **shared["--k"])

    add("constants", _cmd_constants, "growth constants c1, c3, c4")

    p = add("converge", _cmd_converge, "threshold/bound table over dimensions", "--body")
    p.add_argument("--n-list", required=True, help="comma-separated dimensions")
    p.add_argument("--p", type=float, default=1.0)

    p = add("rz-bound", _cmd_rz_bound, "classical translate-count bound", "--n")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--variant", choices=("remark", "intro"), default="remark")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
