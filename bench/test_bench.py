"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import hadcover  # noqa: E402
import hadcover.cli  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build, op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = [
    op("verify-cover", body="crosspolytope", n=3, k=2, samples=20, seed=5, format="json"),
    op("verify-cover", body="simplex", n=3, k=2, samples=20, seed=6, format="plain"),
    op("verify-cover", body="lp", n=3, k=2, p=2.5, samples=50, seed=7, format="plain"),
    op("verify-cover", body="qlp", n=3, k=2, p=1.5, samples=50, seed=8, format="json"),
    op("enumerate", set="m2", n=2, k=3, format="json"),
    op("enumerate", set="m1", n=3, k=2, format="plain"),
    op("converge", body="crosspolytope", n_list="8,16,24", format="csv"),
    op("converge", body="qlp", n_list="8,16", p=3.0, format="json"),
    op("converge", body="simplex", n_list="8,16", format="plain"),
    op("count", set="m2", n=5, k=3, format="json"),
    op("count", set="m1", n=5, k=3, format="csv"),
    op("count", set="m2", n=4, k=4, format="plain"),
    op("gamma-bound", body="lp", n=4, k=2, p=2.0, format="csv"),
    op("gamma-bound", body="simplex", n=4, k=2, p=1.0, format="plain"),
    op("tnpk", n=3, p=2.0, k=4, format="json"),
    op("tnpk", n=3, p=1.0, k=4, format="plain"),
    op("tnpk", n=4, p=3.0, k=3, format="csv"),
    op("constants", format="csv"),
    op("constants", format="json"),
    op("constants", format="plain"),
    op("rz-bound", n=10, r=0.5, variant="intro", format="json"),
    op("rz-bound", n=10, r=0.5, variant="remark", format="plain"),
]


def _names(section):
    return {m["name"] for m in SPEC[section]}


def test_spec_names_the_workloads():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_tiny_ops_pass_their_checks():
    outputs, wall, cpu = run.run_pass(hadcover.cli, TINY)
    assert wall > 0 and cpu >= 0
    for o, (code, stdout) in zip(TINY, outputs):
        assert checks.check(o, code, stdout, {})[0] == [], o.key


def test_checks_catch_wrong_output():
    verify, converge, count = TINY[0], TINY[6], TINY[9]
    (code, out), (_, table), (_, value) = (run.run_pass(hadcover.cli, [o])[0][0]
                                           for o in (verify, converge, count))
    golden = {verify.key: {"exit": 0, "sha256": checks.digest(out + " ")}}
    assert checks.check(verify, code, out, golden)[0]
    assert checks.check(verify, 1, out, {})[0]
    broken = out.replace('"witness_failures":0', '"witness_failures":1')
    assert checks.check(verify, 0, broken, {})[0]
    assert checks.check(converge, 0, table.replace("8,2,", "8,3,"), {})[0]
    assert checks.check(count, 0, value.replace('"count":"', '"count":"1'), {})[0]


def test_every_workload_op_is_checked_at_any_seed():
    golden = json.loads(run.GOLDEN.read_text())
    for workload in WORKLOADS:
        default = build(workload, DEFAULT_SEED)
        assert all(o.key in golden for o in default)
        assert build(workload, DEFAULT_SEED) == default
        other = build(workload, DEFAULT_SEED + 1)
        assert [o.command for o in other] == [o.command for o in default]
        assert all(o.command in checks._CHECKERS for o in other)


def test_end_to_end_metrics_match_spec():
    check = run.Checker(TINY[:3], {})
    metrics = run.end_to_end(hadcover.cli, TINY[:3], check, 0, ROOT / "src")
    assert set(run.with_units(metrics, SPEC["end_to_end"])) == _names("end_to_end")
    assert all(value > 0 for value in metrics.values())
    assert check.failed == 0 and check.attempted == 3 * (run.MIN_PASSES + 1)


def test_per_layer_metrics_match_spec():
    main = hadcover.cli.main
    check = run.Checker(TINY, {})
    spans = ROOT / ".bench_build" / "hadcover-bench" / "spans-smoke.csv"
    values = run.per_layer(hadcover, TINY, check, 0, spans, "smoke")
    assert hadcover.cli.main is main  # originals restored
    assert set(run.with_units(values, SPEC["per_layer"])) == _names("per_layer")
    assert check.failed == 0
    assert min(v for k, v in values.items() if k.endswith("self_s")) > -1e-6
    assert values["cli.main.calls"] == len(TINY)
    assert values["covering.translates_checked"] == 25 + 10
    assert values["bodies.sample_boundary.points"] == 20 + 20 + 50 + 50
    assert values["asymptotics.threshold.calls"] == 7
    assert spans.read_text().count("\n") > len(TINY)


def test_metric_names_must_match_spec():
    with pytest.raises(ValueError):
        run.with_units({"wall_s": 1.0}, SPEC["end_to_end"])


def test_tracer_fails_on_a_missing_function(monkeypatch):
    monkeypatch.delattr(hadcover.bodies, "contains_exact")
    main = hadcover.cli.main
    tracer = tracing.Tracer(hadcover)
    with pytest.raises(AttributeError):
        tracer.install()
    tracer.uninstall()
    assert hadcover.cli.main is main
