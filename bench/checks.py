"""Correctness checks on the CLI's output, run outside the timed region.

Each operation is checked twice over: against the golden record (exit
code and sha256 of stdout, captured at the default workload seed) when
one exists for its exact argv, and by a structural check that holds for
any seed.  Structural checks recompute what they can by an independent
route: translate counts from the dynamic-programming table rather than
the closed form the program uses, threshold brackets from the Delannoy
sum, and so on.
"""

from __future__ import annotations

import ast
import csv
import hashlib
import json
import math
from fractions import Fraction

from hadcover import combinatorics

REL_TOL = 1e-12


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def check(op, code: int, stdout: str, golden: dict) -> tuple[list[str], dict]:
    """Problems found with one operation's result, plus its counters.

    The counters (translates checked, failures, peel moves) are read
    from the verifier's report and feed the traced run's covering layer.
    """
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    want = golden.get(op.key)
    if want is not None and (want["exit"], want["sha256"]) != (code, digest(stdout)):
        problems.append("stdout or exit code differs from the golden record")
    counters = {}
    if code == 0:
        try:
            counters = _CHECKERS[op.command](op, stdout, problems)
        except (ValueError, KeyError, IndexError, TypeError, SyntaxError) as exc:
            problems.append(f"unparsable output: {exc!r}")
    return problems, counters


def delannoy_m2(n: int, k: int) -> int:
    """|M2(n, k)| as sum_i 2^i C(n, i) C(k, i) (OEIS A008288)."""
    return sum((1 << i) * math.comb(n, i) * math.comb(k, i) for i in range(min(n, k) + 1))


def _m1(n: int, k: int) -> int:
    return math.comb(n + k, n)


def _close(got: float, want: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= REL_TOL * abs(want)


def _plain_record(lines) -> dict:
    return dict(line.split(" = ", 1) for line in lines)


def _record(op, stdout: str) -> dict:
    """One key/value record in any of the three formats, values as strings."""
    fmt = op.get("format")
    if fmt == "json":
        return {k: v if isinstance(v, str) else json.dumps(v) for k, v in json.loads(stdout).items()}
    if fmt == "csv":
        header, row = csv.reader(stdout.splitlines())
        return dict(zip(header, row))
    return _plain_record(stdout.splitlines())


def _check_verify(op, stdout, problems) -> dict:
    body, n, k, samples = op.get("body"), op.get("n"), op.get("k"), op.get("samples")
    lines = stdout.splitlines()
    if op.get("format") == "json":
        rec = json.loads(stdout)
        ok, levels = rec["ok"], {int(a): b for a, b in rec["shell_levels"].items()}
    else:
        ok, rec = lines[-1] == "ok", _plain_record(lines[:-1])
        levels = {int(a): b for a, b in ast.literal_eval(rec["shell_levels"]).items()}
    witness, translate = int(rec["witness_failures"]), int(rec["translate_failures"])
    checked = int(rec["translates_checked"])
    if not ok or witness or translate:
        problems.append(f"verification failed: {witness} witness, {translate} translate failures")
    if int(rec["samples"]) != samples or sum(levels.values()) != samples:
        problems.append("shell-level histogram does not account for every sample")
    if body in ("simplex", "crosspolytope"):
        want = _m1(n, k) if body == "simplex" else combinatorics.m2_count_recurrence(n, k)
        if checked != want:
            problems.append(f"translates_checked {checked} != |M| = {want}")
    counters = {
        "covering.translates_checked": checked,
        "covering.translate_failures": translate,
        "covering.witness_failures": witness,
    }
    if body in ("qlp", "lp"):
        counters["covering.peel_moves"] = sum(level * c for level, c in levels.items())
    return counters


def _threshold_count(body: str, n: int, k: int) -> int:
    return _m1(n, k) if body in ("simplex", "qlp") else delannoy_m2(n, k)


def _check_converge(op, stdout, problems) -> dict:
    body, p = op.get("body"), float(op.get("p", 1.0))
    fmt = op.get("format")
    if fmt == "json":
        rows = [(r["n"], r["k"], r["ratio"], r["bound"]) for r in json.loads(stdout)["rows"]]
    elif fmt == "csv":
        rows = list(csv.reader(stdout.splitlines()))[1:]
    else:
        rows = [[part.split("=", 1)[1] for part in line.split()] for line in stdout.splitlines()]
    wanted = [int(part) for part in op.get("n-list").split(",")]
    if [int(r[0]) for r in rows] != wanted:
        problems.append("converge rows do not match the requested dimensions")
    for row in rows:
        n, k, ratio, bound = int(row[0]), int(row[1]), float(row[2]), float(row[3])
        if not _threshold_count(body, n, k) <= 1 << n < _threshold_count(body, n, k + 1):
            problems.append(f"k = {k} is not the exact threshold at n = {n}")
        if not (_close(ratio, k / n) and _close(bound, (n / (n + k)) ** (1.0 / p))):
            problems.append(f"ratio or bound wrong at n = {n}")
    return {}


def _check_count(op, stdout, problems) -> dict:
    n, k = op.get("n"), op.get("k")
    value = int(stdout) if op.get("format") == "plain" else int(_record(op, stdout)["count"])
    want = _m1(n, k) if op.get("set") == "m1" else delannoy_m2(n, k)
    if value != want:
        problems.append(f"count {value} != {want}")
    return {}


def _check_enumerate(op, stdout, problems) -> dict:
    n, k, signed = op.get("n"), op.get("k"), op.get("set") == "m2"
    if op.get("format") == "json":
        points = [tuple(z) for z in json.loads(stdout)["points"]]
    else:
        points = [tuple(int(c) for c in line.split(",")) for line in stdout.splitlines()]
    want = combinatorics.m2_count_recurrence(n, k) if signed else _m1(n, k)
    if len(points) != want:
        problems.append(f"{len(points)} points listed, |M| = {want}")
    if any(a >= b for a, b in zip(points, points[1:])):
        problems.append("points are not in strictly increasing lexicographic order")
    for z in points:
        inside = sum(map(abs, z)) <= k if signed else min(z) >= 0 and sum(z) <= k
        if len(z) != n or not inside:
            problems.append(f"{z} is not in the set")
            break
    return {}


def _check_gamma(op, stdout, problems) -> dict:
    body, n, k, p = op.get("body"), op.get("n"), op.get("k"), float(op.get("p", 1.0))
    rec = _record(op, stdout)
    if int(rec["m"]) != _threshold_count(body, n, k):
        problems.append(f"m = {rec['m']} is not the translation-set size")
    if body in ("simplex", "crosspolytope") or p == 1:
        rho_ok = Fraction(rec["rho"]) == Fraction(n, n + k)
    else:
        rho_ok = _close(float(rec["rho"]), (n / (n + k)) ** (1.0 / p))
    if not rho_ok:
        problems.append(f"rho = {rec['rho']} is wrong")
    return {}


def _check_tnpk(op, stdout, problems) -> dict:
    n, p, k = op.get("n"), float(op.get("p")), op.get("k")
    fmt = op.get("format")
    if fmt == "json":
        raw = json.loads(stdout)["t"]
    elif fmt == "csv":
        raw = [row[1] for row in list(csv.reader(stdout.splitlines()))[1:]]
    else:
        raw = stdout.splitlines()
    if len(raw) != k + 1:
        problems.append(f"{len(raw)} scale factors, expected {k + 1}")
    if p == 1:
        if [Fraction(t) for t in raw] != [Fraction(n + j, n) for j in range(k + 1)]:
            problems.append("p = 1 scale factors are not (n + j)/n")
        return {}
    t = [float(v) for v in raw]
    if t[0] != 1.0:
        problems.append("t_0 != 1")
    for prev, cur in zip(t, t[1:]):
        rhs = n * prev**p
        if not cur > prev or abs((cur - 1) ** p + (n - 1) * cur**p - rhs) > 1e-9 * rhs:
            problems.append(f"scale factor {cur} fails its recurrence")
    return {}


def _check_constants(op, stdout, problems) -> dict:
    rec = _record(op, stdout)
    for name in ("c1", "c3", "c4"):
        if not 0 < float(rec[name]) < 1 or abs(float(rec[f"{name}_residual"])) > 1e-12:
            problems.append(f"{name} = {rec[name]} is not a certified root")
    return {}


def _check_rz(op, stdout, problems) -> dict:
    n, r = op.get("n"), float(op.get("r"))
    value = float(stdout) if op.get("format") == "plain" else float(json.loads(stdout)["bound"])
    middle = math.log(math.log(n)) * (n if op.get("variant") == "intro" else 1)
    if not _close(value, (1 + 1 / r) ** n * (n * math.log(n) + middle + 5 * n)):
        problems.append(f"bound {value} is wrong")
    return {}


_CHECKERS = {
    "verify-cover": _check_verify,
    "converge": _check_converge,
    "count": _check_count,
    "enumerate": _check_enumerate,
    "gamma-bound": _check_gamma,
    "tnpk": _check_tnpk,
    "constants": _check_constants,
    "rz-bound": _check_rz,
}
