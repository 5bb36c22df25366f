import argparse
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import oracles
from hadcover import cli, combinatorics, lattice_sets
from hadcover.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_plain(capsys):
    code, out, err = run_cli(capsys, "count", "--set", "m2", "--n", "3", "--k", "2")
    assert code == 0
    assert out == "25\n"
    assert err == ""


def test_counts_past_the_digit_limit_print_in_full(capsys):
    # C(16000, 8000) has 4,815 digits, past Python's default limit of 4,300
    # for int-to-text conversion; main lifts it and gives the caller's back.
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = str(combinatorics.m1_count(8000, 8000))
    finally:
        sys.set_int_max_str_digits(digits)
    code, out, err = run_cli(capsys, "count", "--set", "m1", "--n", "8000", "--k", "8000")
    assert sys.get_int_max_str_digits() == digits
    assert (code, out, err) == (0, want + "\n", "")
    assert len(want) == 4815


def test_count_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "count", "--set", "m1", "--n", "3", "--k", "2",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"set": "m1", "n": 3, "k": 2, "count": "10"}
    assert int(data["count"]) == 10


def test_count_csv(capsys):
    code, out, _ = run_cli(capsys, "count", "--set", "m1", "--n", "3", "--k", "2",
                           "--format", "csv")
    assert code == 0
    assert out == "set,n,k,count\nm1,3,2,10\n"


def test_enumerate_plain(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--set", "m1", "--n", "2", "--k", "1")
    assert code == 0
    assert out == "0,0\n0,1\n1,0\n"


def test_enumerate_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--set", "m2", "--n", "2", "--k", "1",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["points"] == [[-1, 0], [0, -1], [0, 0], [0, 1], [1, 0]]


def test_gamma_bound_json_exact_bytes(capsys):
    code, out, _ = run_cli(capsys, "gamma-bound", "--body", "simplex", "--n", "3",
                           "--k", "1", "--format", "json")
    assert code == 0
    assert out == '{"m":"4","rho":"3/4"}\n'


def test_gamma_bound_lp(capsys):
    code, out, _ = run_cli(capsys, "gamma-bound", "--body", "qlp", "--n", "2",
                           "--k", "2", "--p", "2.0")
    assert code == 0
    assert out.splitlines()[0] == "m = 6"
    assert float(out.splitlines()[1].split(" = ")[1]) == pytest.approx(0.5**0.5)


def test_tnpk_rational_csv(capsys):
    code, out, _ = run_cli(capsys, "tnpk", "--n", "2", "--p", "1", "--k", "3",
                           "--format", "csv")
    assert code == 0
    assert out == "k,t\n0,1\n1,3/2\n2,2\n3,5/2\n"


def test_tnpk_float(capsys):
    code, out, _ = run_cli(capsys, "tnpk", "--n", "2", "--p", "2", "--k", "1")
    assert code == 0
    first, second = out.splitlines()
    assert float(first) == 1.0
    assert float(second) == pytest.approx((1 + 3**0.5) / 2, abs=1e-11)


def test_constants_json(capsys):
    code, out, _ = run_cli(capsys, "constants", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["c1"] == pytest.approx(0.2938153733, abs=1e-9)
    assert data["c3"] == pytest.approx(0.2055973389, abs=1e-9)
    assert data["c4"] == pytest.approx(0.2270921952, abs=1e-9)
    for key in ("c1_residual", "c3_residual", "c4_residual"):
        assert abs(data[key]) <= 1e-12
    assert data["c4_variant"] == "binomial-entropy"
    assert data["c4_alt_variant_has_root"] is False
    assert data["c4_alt_variant_max"] < 2.0


def test_converge_csv(capsys):
    code, out, _ = run_cli(capsys, "converge", "--body", "simplex",
                           "--n-list", "3,4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,ratio,bound"
    assert lines[2].startswith("4,2,0.5,")


def test_converge_without_dimensions_exits_2(capsys):
    for n_list in ("", ",", ",,"):
        assert run_cli(capsys, "converge", "--body", "simplex", "--n-list", n_list) == (
            2, "", "error: --n-list must name at least one dimension\n"), n_list


def test_verify_cover_ok(capsys):
    code, out, _ = run_cli(capsys, "verify-cover", "--body", "crosspolytope",
                           "--n", "2", "--k", "1", "--samples", "40")
    assert code == 0
    assert out.rstrip().endswith("ok")
    assert "translates_checked = 5" in out
    # |M2(50, 10)| = 3.1e13 translates, counted by level rather than listed.
    code, out, _ = run_cli(capsys, "verify-cover", "--body", "crosspolytope",
                           "--n", "50", "--k", "10", "--samples", "1")
    assert code == 0
    assert out.rstrip().endswith("ok")
    assert "translates_checked = 31297149356221" in out
    # At p = 5000 every w**p of a sample draw can underflow to zero.
    code, out, _ = run_cli(capsys, "verify-cover", "--body", "lp", "--n", "2",
                           "--k", "1", "--p", "5000", "--samples", "50")
    assert code == 0
    assert out.rstrip().endswith("ok")
    code, out, _ = run_cli(capsys, "verify-cover", "--body", "lp", "--n", "3",
                           "--k", "3", "--p", "1e6", "--samples", "50")
    assert code == 0
    assert out.rstrip().endswith("ok")


def test_verify_cover_json(capsys):
    code, out, _ = run_cli(capsys, "verify-cover", "--body", "qlp", "--n", "2",
                           "--k", "1", "--p", "2.0", "--samples", "30",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["witness_failures"] == 0
    assert data["kind"] == "m1-qlp"
    assert sum(data["shell_levels"].values()) == 30


def test_verify_cover_broken_witness_exits_1(capsys, broken_witnesses):
    code, out, _ = run_cli(capsys, "verify-cover", "--body", "simplex", "--n", "2",
                           "--k", "1", "--samples", "20")
    assert code == 1
    assert out.rstrip().endswith("FAILED")
    assert "witness_failures = 20" in out


def test_rz_bound_plain(capsys):
    code, out, _ = run_cli(capsys, "rz-bound", "--n", "3", "--r", "0.5")
    assert code == 0
    assert float(out) == pytest.approx(496.5268867, abs=1e-3)


def test_domain_errors_exit_2(capsys):
    for argv in (
        "rz-bound --n 2 --r 0.5",
        "verify-cover --body lp --n 2 --k 1 --p nan --samples 5",
        "verify-cover --body qlp --n 2 --k 1 --p inf --samples 5",
        "gamma-bound --body lp --n 2 --k 1 --p nan",
        "tnpk --n 2 --p nan --k 2",
        "tnpk --n 2 --p inf --k 2",
        "converge --body lp --n-list 5 --p nan",
        "converge --body simplex --n-list 5 --p 2",
        "converge --body simplex --n-list ,,",
        "gamma-bound --body simplex --n 5 --k 1 --p 2",
        "rz-bound --n 2000 --r 0.001",
        "rz-bound --n 10 --r 5e-324",
        "tnpk --n 2 --p 1e300 --k 2",
        "tnpk --n 3 --p 1e15 --k 2",
        "count --set m1 --n 0 --k 3",
        "verify-cover --body simplex --n 2 --k 1 --p nan --samples 5",
        "verify-cover --body crosspolytope --n 2 --k 1 --p 7 --samples 5",
        "verify-cover --body lp --n 3 --k 3 --p 1e16 --samples 50",
        "verify-cover --body simplex --n 1 --k 10000000 --samples 1",
        "verify-cover --body lp --n 2 --k 1000000 --p 1.01 --samples 1000",
        "verify-cover --body crosspolytope --n 100000 --k 100000",
        "converge --body lp --n-list 99999999 --p 2",
        "count --set m2 --n 1000000 --k 1000000",
        "gamma-bound --body crosspolytope --n 1000000 --k 1000000",
        "count --set m1 --n 1000000 --k 1000000",
        "tnpk --n 3 --p 2 --k 100000000",
    ):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_zero_samples_exit_2_with_one_line(capsys):
    assert run_cli(capsys, *"verify-cover --body simplex --n 3 --k 1 --samples 0".split()) == (
        2, "", "error: samples must be >= 1\n")


def test_every_omitted_p_takes_the_body_default(capsys):
    # qlp and lp default to p = 2, simplex and crosspolytope to p = 1, in
    # verify-cover, gamma-bound and converge alike.
    for body, p in (("simplex", "1"), ("crosspolytope", "1"), ("qlp", "2"), ("lp", "2")):
        for argv in (f"verify-cover --body {body} --n 3 --k 1 --samples 20",
                     f"gamma-bound --body {body} --n 4 --k 2",
                     f"converge --body {body} --n-list 8,16 --format json"):
            want = run_cli(capsys, *argv.split(), "--p", p)
            assert want[0] == 0, argv
            assert run_cli(capsys, *argv.split()) == want, argv
    code, out, _ = run_cli(capsys, *"gamma-bound --body lp --n 4 --k 2".split())
    assert (code, out) == (0, "m = 41\nrho = 0.816496580927726\n")


def test_overflow_errors_name_the_argument(capsys):
    for argv, err_want in (
        ("rz-bound --n 10 --r 5e-324",
         "error: r is too small for n = 10: the bound overflows a float\n"),
        ("rz-bound --n 2000 --r 0.001",
         "error: r is too small for n = 2000: the bound overflows a float\n"),
        ("tnpk --n 2 --p 1e300 --k 2",
         "error: p is too large: t**p is not resolved within 1e-09\n"),
        ("tnpk --n 3 --p 1e15 --k 2",
         "error: p is too large: t**p is not resolved within 1e-09\n"),
    ):
        assert run_cli(capsys, *argv.split()) == (2, "", err_want), argv


def test_huge_counts_are_refused_before_any_work(capsys, monkeypatch):
    def no_count(*args):
        raise AssertionError("counted past the budget")

    monkeypatch.setattr(combinatorics, "m1_count", no_count)
    monkeypatch.setattr(combinatorics, "m2_count_closed", no_count)
    for argv, want in (
        ("count --set m2 --n 1000000 --k 1000000", "m2(n=1000000, k=1000000) needs about 2.83e+13"),
        ("gamma-bound --body lp --p 2 --n 1000000 --k 1000000", "m2(n=1000000, k=1000000)"),
        ("count --set m1 --n 1000000 --k 1000000", "m1(n=1000000, k=1000000) needs about 2.82e+12"),
        ("gamma-bound --body simplex --n 1000000 --k 1000000", "m1(n=1000000, k=1000000)"),
        # n and k past the float range: the estimate stays finite, and refuses.
        (f"count --set m1 --n {10**400} --k {10**400}", f"m1(n={10**400}, k={10**400})"),
    ):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: the count of {want}") and err.count("\n") == 1, err
        assert err.endswith(f" bit-steps, over the budget of {lattice_sets.MAX_COUNT_WORK}\n")


def test_count_budget_admits_big_counts_of_small_work(capsys):
    # At k = 1 (or n = 1) a count of any size is a few bit-steps per bit.
    assert run_cli(capsys, "count", "--set", "m1", "--n", str(10**400), "--k", "1") == (
        0, f"{10**400 + 1}\n", "")
    assert run_cli(capsys, "count", "--set", "m2", "--n", "1", "--k", str(10**400)) == (
        0, f"{2 * 10**400 + 1}\n", "")


def test_cli_set_up_imports_no_code_tools():
    # dataclasses alone pulled in inspect, ast, dis and tokenize: about 18 ms
    # of each CLI call's set-up, before any command ran.  csv tables go
    # through the plain writer, so a csv command imports no csv either.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import hadcover.cli\n"
        "hadcover.cli.build_parser()\n"
        "assert hadcover.cli.main(['count', '--set', 'm2', '--n', '3', '--k', '2',"
        " '--format', 'csv']) == 0\n"
        "print(sorted({'csv', 'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}"
        " & set(sys.modules)))\n"
    )
    result = subprocess.run([sys.executable, "-I", "-S", "-c", script],
                            capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (
        0, "set,n,k,count\nm2,3,2,25\n[]\n", "")


def test_argparse_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--set", "m9", "--n", "1", "--k", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify-cover", "--body", "simplex", "--n", "2", "--k", "1",
              "--inject-corrupt-witness"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --inject-corrupt-witness" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify-cover", "--body", "lp", "--n", "2", "--k", "1", "--p", "2",
              "--tol", "nan", "--samples", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol nan" in capsys.readouterr().err


def test_parser_is_built_once(capsys):
    assert build_parser() is build_parser()

    def parsers_alive_after(calls):
        gc.collect()
        for _ in range(calls):
            main(["count", "--set", "m1", "--n", "2", "--k", "1"])
        return sum(isinstance(obj, argparse.ArgumentParser) for obj in gc.get_objects())

    gc.disable()
    try:
        once, ten_times = parsers_alive_after(1), parsers_alive_after(10)
    finally:
        gc.enable()
    capsys.readouterr()
    assert ten_times <= once


def test_repeated_runs_are_byte_identical(capsys):
    commands = [
        ("verify-cover", "--body", "simplex", "--n", "3", "--k", "2",
         "--samples", "50", "--format", "json"),
        ("constants", "--format", "json"),
        ("tnpk", "--n", "3", "--p", "2", "--k", "4", "--format", "csv"),
        ("enumerate", "--set", "m2", "--n", "3", "--k", "2"),
    ]
    for argv in commands:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "hadcover", "count", "--set", "m2", "--n", "5",
         "--k", "4"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "681\n"


def _printed(lines):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for line in lines:
            print(line)
    return out.getvalue()


@pytest.mark.parametrize("size", [1, 4095, 4096, 4097, 8193])
def test_render_writes_the_bytes_of_one_print_per_line(size):
    lines = [str(i) if i % 3 else f"line {i}" for i in range(size)]
    for fmt in ("plain", "csv"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._render(fmt, {}, lines=iter(lines))
        assert out.getvalue() == _printed(lines)


def test_render_streams_one_block_at_a_time(monkeypatch):
    pulled, writes = [], []

    def lines():
        for i in range(8193):
            pulled.append(i)
            yield str(i)

    class Stdout:
        def write(self, text):
            writes.append((len(pulled), text.count("\n")))

    monkeypatch.setattr(sys, "stdout", Stdout())
    cli._render("plain", {}, lines=lines())
    assert writes == [(4096, 4096), (8192, 4096), (8193, 1)]


def test_enumerate_matches_a_reference_rendering(capsys):
    boxes = {"m1": oracles.box_points_m1, "m2": oracles.box_points_m2}
    for kind, box in boxes.items():
        for n in range(1, 5):
            for k in range(5):
                points = box(n, k)
                plain = "".join(",".join(map(str, z)) + "\n" for z in points)
                record = {"set": kind, "n": n, "k": k, "points": [list(z) for z in points]}
                expected = {
                    "plain": plain,
                    "csv": plain,
                    "json": json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n",
                }
                for fmt, want in expected.items():
                    argv = ("enumerate", "--set", kind, "--n", str(n), "--k", str(k),
                            "--format", fmt)
                    assert run_cli(capsys, *argv) == (0, want, ""), argv


def _dumped(kind, n, k, points):
    record = {"set": kind, "n": n, "k": k, "points": [list(z) for z in points]}
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("block", [1, 2, 3])
def test_json_listing_keeps_its_bytes_across_blocks(capsys, monkeypatch, block):
    monkeypatch.setattr(cli, "_BLOCK", block)
    boxes = {"m1": oracles.box_points_m1, "m2": oracles.box_points_m2}
    for kind, box in boxes.items():
        for n in range(1, 5):
            for k in range(5):
                argv = ("enumerate", "--set", kind, "--n", str(n), "--k", str(k),
                        "--format", "json")
                assert run_cli(capsys, *argv) == (0, _dumped(kind, n, k, box(n, k)), ""), argv


def test_long_json_listing_matches_one_dump(capsys):
    # 13,073 points: three full blocks of 4096 and one of 785.
    points = list(lattice_sets.enumerate_points(lattice_sets.LatticeSetSpec("m2", 5, 8)))
    assert len(points) == 13073
    argv = ("enumerate", "--set", "m2", "--n", "5", "--k", "8", "--format", "json")
    assert run_cli(capsys, *argv) == (0, _dumped("m2", 5, 8, points), "")


def test_render_streams_a_json_list_one_block_at_a_time(monkeypatch):
    pulled, writes = [], []

    def lines():
        for i in range(8193):
            pulled.append(i)
            yield f"{i},{-i}"

    class Stdout:
        def write(self, text):
            writes.append((len(pulled), text))

    monkeypatch.setattr(sys, "stdout", Stdout())
    cli._render("json", {"n": 2, "points": [], "set": "m2"}, lines=lines(), array="points")
    # The head, one write per block of at most 4096 items, then print's tail and newline.
    assert [(count, text.count("[")) for count, text in writes] == [
        (0, 1), (4096, 4096), (8192, 4096), (8193, 1), (8193, 0), (8193, 0)]
    record = {"n": 2, "points": [[i, -i] for i in range(8193)], "set": "m2"}
    want = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    assert "".join(text for _, text in writes) == want


def _traced_peak(argv):
    """Peak bytes of Python allocations while main(argv) writes to devnull."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        # Warm-up: the parser and the imports are built.
        assert main(["enumerate", "--set", "m1", "--n", "2", "--k", "1"]) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_json_listing_memory_is_one_block():
    # The whole m1(8, 9) list of 24,310 points, dumped at once, peaks at
    # about 6 MB of Python allocations; streamed, near the plain listing's 0.6 MB.
    peak = _traced_peak(["enumerate", "--set", "m1", "--n", "8", "--k", "9", "--format", "json"])
    assert peak < 1.5e6, peak


def test_listing_memory_does_not_grow_with_k():
    # m1(2, 1000) has 501,501 points.  Its tails M(1, j) are runs of one
    # 1,001-line text; a text cached per j would hold every point, about
    # 2.4 MB, where the run peaks near 0.64 MB.
    peak = _traced_peak(["enumerate", "--set", "m1", "--n", "2", "--k", "1000"])
    assert peak < 1.5e6, peak


# Small shapes, one point (k = 0), a wide set, and long single-coordinate
# tails: with the tail cache capped at 16 * _BLOCK bytes, the patched
# blocks give tails of no coordinate, of some, and of all but the first
# (or all, at n = 1).  m2(1, 7000) and m1(1, 13000) have values past the
# cap at the default block, so no tail; m2(300, 1) has 600-byte lines,
# fewer than _BLOCK to a write.
_LISTING_GRID = ([(kind, n, k) for kind in ("m1", "m2") for n in range(1, 5) for k in range(5)]
                 + [("m2", 9, 0), ("m1", 6, 5), ("m2", 30, 2), ("m1", 2, 300), ("m2", 1, 5000),
                    ("m2", 1, 7000), ("m1", 1, 13000), ("m2", 300, 1)])


def test_listing_bytes_match_the_per_point_rendering(capsys, monkeypatch):
    expected = {(shape, fmt): oracles.reference_listing(*shape, fmt)
                for shape in _LISTING_GRID for fmt in ("plain", "json")}
    heads = []
    enumerate_points = lattice_sets.enumerate_points

    def spy(spec):
        heads.append(spec.n)
        return enumerate_points(spec)

    def no_count(spec):
        raise AssertionError("counted a translation set")

    monkeypatch.setattr(lattice_sets, "enumerate_points", spy)
    # The tails come from the byte cap alone, with no count lookups.
    monkeypatch.setattr(lattice_sets, "count", no_count)
    tails = set()
    for block in (1, 64, 4096):
        monkeypatch.setattr(cli, "_BLOCK", block)
        for (kind, n, k), fmt in expected:
            heads.clear()
            argv = ("enumerate", "--set", kind, "--n", str(n), "--k", str(k), "--format", fmt)
            assert run_cli(capsys, *argv) == (0, expected[(kind, n, k), fmt], ""), (block, argv)
            # The heads are the last points enumerated; with no head the tail is all of z.
            t = n - (heads[-1] if heads else 0)
            tails.add("none" if t == 0 else "middle" if t < n - 1 else "all but the head"
                      if t == n - 1 else "all")
    assert tails == {"none", "middle", "all but the head", "all"}


def test_wide_listing_writes_at_most_a_block_of_bytes(monkeypatch):
    # m2(300, 1): 601 lines of up to 600 bytes, 109 lines to a write, not 4096.
    # A write may pass 16 * _BLOCK by one line: a JSON item with "],[" is 603 bytes.
    writes = []

    class Stdout:
        def write(self, text):
            writes.append(text)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Stdout())
    for fmt in ("plain", "json"):
        writes.clear()
        assert main(["enumerate", "--set", "m2", "--n", "300", "--k", "1", "--format", fmt]) == 0
        assert "".join(writes) == oracles.reference_listing("m2", 300, 1, fmt)
        assert len(writes) > 5
        assert max(map(len, writes)) <= 16 * cli._BLOCK + 603


def test_closed_pipe_exits_141_quietly():
    # 125,970 lines, far more than a pipe buffer holds, so the writer
    # is still writing when the reader leaves.
    proc = subprocess.Popen(
        [sys.executable, "-m", "hadcover", "enumerate", "--set", "m1", "--n", "8",
         "--k", "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"0,0,0,0,0,0,0,0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


# Starts the CLI with fd 1 closed, as a shell's `>&-` does.
_CLOSED_STDOUT = ("import os, sys; os.close(1); "
                  "os.execv(sys.executable, [sys.executable, '-m', 'hadcover', *sys.argv[1:]])")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unwritable_stdout_exits_2_with_one_line():
    # A write error is not a failed covering (exit 1): one error line,
    # exit 2, and no traceback or "Exception ignored" at the final flush.
    count = ["count", "--set", "m1", "--n", "3", "--k", "2"]
    verify = ["verify-cover", "--body", "simplex", "--n", "3", "--k", "1", "--samples", "5"]
    runs = []
    for argv in (count, verify):
        with open("/dev/full", "w") as full:
            runs.append(subprocess.run([sys.executable, "-m", "hadcover", *argv],
                                       stdout=full, stderr=subprocess.PIPE, text=True))
    runs.append(subprocess.run([sys.executable, "-c", _CLOSED_STDOUT, *verify],
                               stderr=subprocess.PIPE, text=True))
    for result in runs:
        lines = result.stderr.splitlines()
        assert result.returncode == 2, result.stderr
        assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
        assert "Traceback" not in result.stderr
