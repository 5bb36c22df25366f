"""Every subcommand in every output format, pinned byte for byte.

``cli_golden.json`` maps each argv (joined by spaces) to its exit code,
stdout and stderr; the ``BROKEN_WITNESS`` commands run with every
covering witness broken (``conftest.break_witnesses``), which pins the
failure output.  ``cli_help_golden.json`` does the same for ``--help``
of the top level and of every subcommand, rendered 120 columns wide:
at that width Python 3.10 to 3.13 wrap every usage line alike, while at
80 columns the argparse of 3.13 wraps five of them differently.  To
record both again after an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import csv
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from hadcover.cli import main
from conftest import break_witnesses

GOLDEN = Path(__file__).with_name("cli_golden.json")
HELP_GOLDEN = Path(__file__).with_name("cli_help_golden.json")

COMMANDS = [
    "count --set m1 --n 3 --k 2",
    "count --set m2 --n 4 --k 3",
    "enumerate --set m1 --n 2 --k 2",
    "enumerate --set m2 --n 2 --k 1",
    "verify-cover --body simplex --n 3 --k 2 --samples 40 --seed 7",
    "verify-cover --body crosspolytope --n 3 --k 1 --samples 40 --seed 3",
    "verify-cover --body qlp --n 3 --k 2 --p 2.5 --samples 60 --seed 11",
    "verify-cover --body lp --n 3 --k 2 --p 2 --samples 60 --seed 5",
    "verify-cover --body lp --n 2 --k 1 --p 1 --samples 30 --seed 6",
    "verify-cover --body simplex --n 2 --k 1 --samples 20",
    "gamma-bound --body simplex --n 3 --k 1",
    "gamma-bound --body lp --n 4 --k 2 --p 3",
    "tnpk --n 2 --p 1 --k 3",
    "tnpk --n 3 --p 2.5 --k 4",
    "constants",
    "converge --body simplex --n-list 3,4,8",
    "converge --body lp --n-list 5,9 --p 2",
    "rz-bound --n 10 --r 0.5",
    "rz-bound --n 12 --r 0.3 --variant intro",
    "rz-bound --n 2 --r 0.5",
    "tnpk --n 1 --p 2 --k 3",
]
BROKEN_WITNESS = {"verify-cover --body simplex --n 2 --k 1 --samples 20"}
FORMATS = ("plain", "json", "csv")
ARGVS = [f"{command} --format {fmt}" for command in COMMANDS for fmt in FORMATS]
SUBCOMMANDS = ("count", "enumerate", "verify-cover", "gamma-bound", "tnpk",
               "constants", "converge", "rz-bound")
HELP_ARGVS = ["--help"] + [f"{name} --help" for name in SUBCOMMANDS]


def run(argv: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps help text to the terminal width it reads from COLUMNS.
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "120"}), \
            pytest.MonkeyPatch.context() as monkeypatch:
        if argv.rsplit(" --format", 1)[0] in BROKEN_WITNESS:
            break_witnesses(monkeypatch)
        try:
            code = main(argv.split())
        except SystemExit as exc:  # --help exits through argparse
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def help_golden():
    return json.loads(HELP_GOLDEN.read_text())


def test_golden_covers_every_argv(golden, help_golden):
    assert sorted(golden) == sorted(ARGVS)
    assert sorted(help_golden) == sorted(HELP_ARGVS)


@pytest.mark.parametrize("argv", ARGVS)
def test_cli_output_matches_golden(golden, argv):
    assert run(argv) == golden[argv]


@pytest.mark.parametrize("argv", HELP_ARGVS)
def test_help_matches_golden(help_golden, argv):
    assert run(argv) == help_golden[argv]
    assert help_golden[argv]["code"] == 0


def test_csv_fields_never_need_quoting(golden):
    # csv rows share the plain writer: their fields are joined by commas as
    # they are, which is what csv.writer would write for fields like these.
    argvs = [argv for argv in golden if argv.endswith("--format csv")]
    assert len(argvs) == len(COMMANDS)
    for argv in argvs:
        lines = golden[argv]["stdout"].splitlines()
        fields = [line.split(",") for line in lines]
        assert list(csv.reader(lines)) == fields, argv
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(fields)
        assert out.getvalue() == golden[argv]["stdout"], argv


if __name__ == "__main__":
    for path, argvs in ((GOLDEN, ARGVS), (HELP_GOLDEN, HELP_ARGVS)):
        path.write_text(json.dumps({argv: run(argv) for argv in argvs}, indent=1) + "\n")
