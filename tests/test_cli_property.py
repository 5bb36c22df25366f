"""Property tests of the CLI exit-code contract.

Any argv exits 0 or 2, never with a traceback; exit 2 prints one
``error:`` line, and exit 0 prints no ``inf`` or ``nan``.  Exit 1 is left
to a covering verification that really fails, which no valid input
produces.
"""

import contextlib
import io
import math
import re

from hypothesis import given, settings, strategies as st

from hadcover.bodies import FAMILIES, TOL
from hadcover.cli import FORMATS, main
from hadcover.covering import MAX_CHECKS

SETTINGS = settings(derandomize=True, deadline=None, database=None)

EDGE_FLOATS = (math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324,
               0.0, -0.0, 1.0, 2.0, 0.5, 1e-9)
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
ints = st.integers(-3, 40)
small_n = st.integers(-1, 6)
small_k = st.integers(-1, 3)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _argv(command, **options):
    # --name=value keeps argparse from reading "-inf" or "-1e308" as a flag.
    argv = [command]
    for name, value in options.items():
        if value is not None:
            argv.append(f"--{name.replace('_', '-')}={value}")
    return argv


def _optional(strategy):
    return st.none() | strategy


lattice_set = st.sampled_from(("m1", "m2"))
body = st.sampled_from(FAMILIES)
fmt = st.sampled_from(FORMATS)

ANY_ARGV = st.one_of(
    st.builds(_argv, st.just("count"), set=lattice_set, n=ints, k=ints, format=fmt),
    st.builds(_argv, st.just("enumerate"), set=lattice_set, n=small_n, k=small_k,
              format=fmt),
    st.builds(_argv, st.just("verify-cover"), body=body, n=small_n, k=small_k,
              p=_optional(floats), samples=_optional(st.integers(-1, 20) | st.just(10**9)),
              seed=_optional(st.integers()), format=fmt),
    st.builds(_argv, st.just("gamma-bound"), body=body, n=ints, k=ints,
              p=_optional(floats), format=fmt),
    st.builds(_argv, st.just("tnpk"), n=ints, p=floats, k=ints, format=fmt),
    st.builds(_argv, st.just("constants"), format=fmt),
    st.builds(_argv, st.just("converge"), body=body,
              n_list=st.lists(ints, max_size=4).map(lambda ns: ",".join(map(str, ns))),
              p=_optional(floats), format=fmt),
    st.builds(_argv, st.just("rz-bound"), n=ints, r=floats,
              variant=_optional(st.sampled_from(("remark", "intro"))), format=fmt),
)


def check_contract(argv):
    code, out, err = run(argv)
    assert code in (0, 2), (argv, out, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
    else:
        assert not re.search(r"\b(inf|nan)\b", out, re.I), (argv, out)


@SETTINGS
@given(ANY_ARGV)
def test_any_argv_exits_0_or_2(argv):
    check_contract(argv)


# In-domain arguments of the commands with a float result, out to where
# that result leaves the float range: it must stay finite or exit 2.
@SETTINGS
@given(st.one_of(
    st.builds(_argv, st.just("rz-bound"), n=st.integers(3, 5000),
              r=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    st.builds(_argv, st.just("tnpk"), n=st.integers(2, 40), p=st.floats(1.0, 1e308),
              k=st.integers(0, 5)),
))
def test_float_results_are_finite_or_exit_2(argv):
    check_contract(argv)


# Float verification resolves the inflation scale up to p * 2^-53 = TOL;
# the two tests below split [1, 1e308] at that p.
P_MAX = TOL * 2.0**53


def _verify_argv(p):
    return st.builds(_argv, st.just("verify-cover"), body=st.sampled_from(("qlp", "lp")),
                     n=st.integers(1, 5), k=st.integers(0, 3), p=p,
                     samples=st.integers(1, 20))


@SETTINGS
@given(_verify_argv(st.floats(1.0, P_MAX)))
def test_valid_verify_cover_exits_0_ok(argv):
    code, out, err = run(argv)
    assert (code, err) == (0, ""), (argv, out, err)
    assert out.rstrip().endswith("ok")


@SETTINGS
@given(_verify_argv(st.floats(P_MAX, 1e308, exclude_min=True)))
def test_verify_cover_past_the_scale_bound_exits_2(argv):
    code, out, err = run(argv)
    assert (code, out) == (2, ""), (argv, out, err)
    assert err.startswith("error: p = ") and err.count("\n") == 1, err


# Past MAX_CHECKS (translate vertices plus samples times n, times the
# k + 1 peel steps for a curved body) verify-cover is refused before any
# work: by the sweep of a large exact covering, or by the samples of any
# body.
@SETTINGS
@given(st.one_of(
    st.builds(_argv, st.just("verify-cover"), body=st.sampled_from(("simplex", "crosspolytope")),
              n=st.integers(20, 10**5), k=st.integers(10, 10**5),
              samples=_optional(st.integers(1, 20)), format=fmt),
    st.builds(_argv, st.just("verify-cover"), body=body, n=st.integers(1, 100),
              k=st.integers(0, 3), samples=st.integers(MAX_CHECKS + 1, 10**12), format=fmt),
))
def test_verify_cover_over_the_check_budget_exits_2(argv):
    code, out, err = run(argv)
    assert (code, out) == (2, ""), (argv, out, err)
    assert err.startswith("error: verification needs ") and err.count("\n") == 1, err
    assert err.endswith(f"over the budget of {MAX_CHECKS}\n"), err
