"""Command-line front end: counts, enumeration, verification, and tables.

Output is deterministic: identical invocations produce byte-identical
output.  Counts print as decimal strings, exact rationals as num/den,
floats as their shortest round-trip repr.  Exit status 0 on success,
1 when a covering verification fails, 2 on invalid input or a stdout
that cannot be written (closed, or a full device), with one ``error:``
line on stderr, and 141 when the reader closes stdout before the output
ends.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from . import asymptotics, covering, lattice_sets
from .bodies import FAMILIES, LP, QUARTER_LP

FORMATS = ("plain", "json", "csv")
# Lines per write of a listing (fewer past 16 * _BLOCK bytes): memory bounded by one block.
_BLOCK = 4096
# --p when omitted; simplex and crosspolytope are p = 1 bodies.
_DEFAULT_P = {QUARTER_LP: 2.0, LP: 2.0}


def _p(args) -> float:
    return _DEFAULT_P.get(args.body, 1.0) if args.p is None else args.p


def _render(fmt: str, record: dict, rows=None, lines=None, array=None) -> None:
    """Print one command's result, given its lines as text, as fmt.

    json prints the record, streaming the lines as bracketed items into
    its empty list ``record[array]``.  csv and plain stream through
    _write_blocks: csv the header-first rows, str() fields joined by
    commas (none needs quoting), or the plain lines when the command has
    no table; plain the lines, by default one ``key = value`` per item.
    """
    if fmt == "json":
        text = json.dumps(record, sort_keys=True, separators=(",", ":"))
        if array:
            head, key, text = text.partition(f"{json.dumps(array)}:[")
            sys.stdout.write(head + key)
            _write_blocks(lines, "],[", "]", "[", ",[")
        print(text)
    else:
        if fmt == "csv" and rows is not None:
            lines = (",".join(map(str, row)) for row in rows)
        elif lines is None:
            lines = (f"{key} = {value}" for key, value in record.items())
        _write_blocks(lines)


def _write_blocks(lines, sep="\n", end="\n", start="", restart="") -> None:
    """Write the text lines in blocks, one write each of start + the block
    joined by sep + end, where start becomes restart after the first block.

    A block is _BLOCK lines, fewer when its first line is wide: at most
    16 * _BLOCK bytes of lines as wide as that one, and one line at least.
    """
    lines = iter(lines)
    for first in lines:
        more = max(1, min(_BLOCK, 16 * _BLOCK // (len(first) + 1))) - 1
        sys.stdout.write(start + sep.join([first, *itertools.islice(lines, more)]) + end)
        start = restart


def _listing(spec: lattice_sets.LatticeSetSpec):
    """The lines "z1,...,zn" of spec's members, in lexicographic order.

    In that order a member is a head a in M(h, k) followed by a tail in
    M(t, k - |a|), t = n - h.  The text of every tail set M(t, j),
    j = 0..k, is built once, and a head's lines are its prefix
    "a1,...,ah," put before each line of its tail text: string work per
    head instead of a template per point.  The tail texts grow a level at
    a time.  Level 1 is one text, the values v of M(1, k), of which the
    lines of M(1, j) are a run; level t + 1 puts each "v," of M(1, j)
    before level t at j - |v|.  Levels are built up to t = n - 1 (n = 1
    has level 1 only) while the texts built add up to at most
    16 * _BLOCK bytes: the cache is about one block of text at any n and
    k.  With no level (t = 0) each point is one head, formatted by one
    template.
    """
    n, k, signed = spec.n, spec.k, spec.kind == lattice_sets.M2
    cap = 16 * _BLOCK
    zero = k if signed else 0  # the index of 0 in values
    values = range(-zero, k + 1)
    t = 0

    def block(prefix, j):
        return prefix + text[firsts[j]:lasts[j]].replace("\n", "\n" + prefix)

    if len(values) <= cap:  # each line takes a byte at least
        words = list(map(str, values))
        # Line i of the text runs from starts[i] to starts[i + 1] - 1.
        starts = [0, *itertools.accumulate(map((1).__add__, map(len, words)))]
        built = starts[-1] - 1
        if built <= cap:
            # The tail text of M(t, j) is text[firsts[j]:lasts[j]].
            t, text = 1, "\n".join(words)
            firsts = starts[zero::-1] if signed else [0] * (k + 1)
            lasts = list(map((-1).__add__, starts[zero + 1:]))
    # At k <= 1 a level moves at most two heads into the tail.
    while 0 < t < n - 1 and k > 1:
        texts = []
        for j in range(k + 1):
            run = slice(zero - j if signed else 0, zero + j + 1)
            prefixes = (word + "," for word in words[run])
            leftovers = map(j.__sub__, map(abs, values[run]))
            texts.append("\n".join(map(block, prefixes, leftovers)))
            built += len(texts[-1])
            if built > cap:
                break
        if built > cap:
            break
        lasts = list(itertools.accumulate(map(len, texts)))
        t, text, firsts = t + 1, "".join(texts), [0, *lasts[:-1]]
    h = n - t
    template = ",".join(["%d"] * h) + ("," if h and t else "")
    heads = [()] if h == 0 else lattice_sets.enumerate_points(
        lattice_sets.LatticeSetSpec(spec.kind, h, k))
    if t == 0:
        return map(template.__mod__, heads)
    blocks = (block(template % a, k - sum(map(abs, a))) for a in heads)
    return itertools.chain.from_iterable(map(str.split, blocks, itertools.repeat("\n")))


def _cmd_count(args) -> int:
    # One decimal conversion for every format: it is quadratic in the digits up to 3.11.
    value = str(lattice_sets.count(lattice_sets.LatticeSetSpec(args.set, args.n, args.k)))
    record = {"set": args.set, "n": args.n, "k": args.k, "count": value}
    _render(args.format, record, rows=[list(record), list(record.values())],
            lines=[value])
    return 0


def _cmd_enumerate(args) -> int:
    spec = lattice_sets.LatticeSetSpec(args.set, args.n, args.k)
    record = {"set": args.set, "n": args.n, "k": args.k, "points": []}
    _render(args.format, record, lines=_listing(spec), array="points")
    return 0


def _cmd_verify_cover(args) -> int:
    report = covering.verify_covering_lp(args.body, args.n, _p(args), args.k,
                                         args.samples, args.seed)
    d = report.to_dict()
    lines = [f"{key} = {value}" for key, value in d.items() if key != "ok"]
    _render(args.format, d, lines=lines + ["ok" if report.ok else "FAILED"])
    return 0 if report.ok else 1


def _cmd_gamma_bound(args) -> int:
    bound = covering.gamma_upper_bound(args.body, args.n, _p(args), args.k)
    record = {"m": str(bound.m), "rho": str(bound.rho)}
    _render(args.format, record, rows=[list(record), list(record.values())])
    return 0


def _cmd_tnpk(args) -> int:
    seq = covering.t_sequence(args.n, args.p, args.k)
    t = list(map(str, seq.values))
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
    _render(args.format, report, rows=[keys, [report[k] for k in keys]])
    return 0


def _cmd_converge(args) -> int:
    n_list = [int(part) for part in args.n_list.split(",") if part]
    if not n_list:
        raise ValueError("--n-list must name at least one dimension")
    p = _p(args)
    rows = asymptotics.convergence_table(args.body, n_list, p)
    record = {
        "family": args.body,
        "p": p,
        "rows": [{"n": r.n, "k": r.k, "ratio": r.ratio, "bound": r.bound} for r in rows],
    }
    _render(
        args.format, record,
        rows=[["n", "k", "ratio", "bound"]]
        + [[r.n, r.k, r.ratio, r.bound] for r in rows],
        lines=[f"n={r.n} k={r.k} ratio={r.ratio} bound={r.bound}" for r in rows],
    )
    return 0


def _cmd_rz_bound(args) -> int:
    value = asymptotics.rogers_zong_bound(args.n, args.r, args.variant)
    record = {"n": args.n, "r": args.r, "variant": args.variant, "bound": value}
    _render(args.format, record, lines=[str(value)])
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with its help written as any output is.

    argparse drops an error in writing its help, so help to an unbuffered
    full device exited 0 with nothing written; here the error reaches main.
    """

    def print_help(self, file=None) -> None:
        (file or sys.stdout or sys.stderr).write(self.format_help())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; callers share it."""
    shared = {
        "--set": dict(choices=(lattice_sets.M1, lattice_sets.M2), required=True),
        "--body": dict(choices=FAMILIES, required=True),
        "--n": dict(type=int, required=True),
        "--k": dict(type=int, required=True),
    }
    parser = _Parser(
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
    p.add_argument("--p", type=float)

    p = add("tnpk", _cmd_tnpk, "certified l_p scale sequence", "--n")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--k", **shared["--k"])

    add("constants", _cmd_constants, "growth constants c1, c3, c4")

    p = add("converge", _cmd_converge, "threshold/bound table over dimensions", "--body")
    p.add_argument("--n-list", required=True, help="comma-separated dimensions")
    p.add_argument("--p", type=float)

    p = add("rz-bound", _cmd_rz_bound, "classical translate-count bound", "--n")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--variant", choices=("remark", "intro"), default="remark")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # Exact counts print in full, past the interpreter's int-to-text digit
    # limit; the caller's limit is back in place when main returns.
    digits = sys.get_int_max_str_digits()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:  # --help, or a usage error on stderr
            if sys.stdout is not None:
                sys.stdout.flush()  # so help to a full device raises here
            raise
        if sys.stdout is None:  # started with stdout closed (`>&-`)
            print("error: cannot write the output: stdout is closed", file=sys.stderr)
            return 2
        sys.set_int_max_str_digits(0)
        code = args.handler(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at interpreter exit
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # only stdout is written
        # Point stdout at devnull so the interpreter's final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return 141  # the reader left (`| head`): exit as SIGPIPE would, 128 + 13
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(digits)
    return code
