"""End-to-end and per-layer benchmark of the hadcover CLI.

Usage, from the repository root:

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 25 --trace 0

Each pass sends the workload's operations one after another to
``hadcover.cli.main(argv)`` in this process, with stdout captured: one
process, one thread, a closed loop of one client.  After a warm-up
pass, passes repeat until ``--seconds`` (by default ``run_seconds`` of
``BENCHMARK.json``) have elapsed and the medians are reported.
``setup_s`` is the median import-plus-parser time of fresh interpreters
started between the passes; ``peak_rss_mb`` is the process's peak
resident set after the warm-up pass, read before any output is checked.
Every operation's output is checked outside the timed region
(``checks.py``).  Metric names and units are those of ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the
traced ones (``tracing.py``), writing the spans of the last traced pass
under ``.bench_build/hadcover-bench/``.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
MIN_PASSES = 3
SETUP_PROBES_PER_PASS = 3

# Time to import the package and build the CLI parser, measured inside
# a fresh interpreter so interpreter start-up itself is left out.
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import hadcover.cli\n"
    "hadcover.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(cli, ops, tracer=None):
    """Run every op once; return ([(exit code, stdout)], wall_s, cpu_s)."""
    outputs = []
    gc.collect()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(op.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crashing op is a failed op, not a crashed benchmark
                print(traceback.format_exc(), file=sys.stderr)
                code = -1
        outputs.append((code, out.getvalue()))
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    return outputs, wall, cpu


class Checker:
    """Checks each pass's outputs; an op must also repeat its first output."""

    def __init__(self, ops, golden):
        self.ops, self.golden = ops, golden
        self.attempted = self.failed = 0
        self._first = {}  # op index -> (exit code, digest, problems, counters)
        self.problems = []

    def __call__(self, outputs) -> dict:
        from checks import check, digest

        counters = {}
        for i, (op, (code, stdout)) in enumerate(zip(self.ops, outputs)):
            d = digest(stdout)
            if i not in self._first:
                self._first[i] = (code, d, *check(op, code, stdout, self.golden))
            first_code, first_digest, problems, op_counters = self._first[i]
            if (code, d) != (first_code, first_digest):
                problems = problems + ["output differs from the first pass"]
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{op.key}: {'; '.join(problems)}")
            for name, value in op_counters.items():
                counters[name] = counters.get(name, 0) + value
        return counters


def setup_probe(src: Path) -> float:
    done = subprocess.run([sys.executable, "-I", "-c", SETUP_PROBE, str(src)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def _quartiles(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f} (q1 {q1:.4f}, q3 {q3:.4f}, n = {len(values)})"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(cli, ops, check, seconds, src) -> dict:
    setup_probe(src)  # warm-up: may compile bytecode
    outputs = run_pass(cli, ops)[0]  # warm-up
    # The program's peak, before the checks parse its outputs.
    peak_rss_mb = _peak_rss_mb()
    check(outputs)
    del outputs
    walls, cpus, setups = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        outputs, wall, cpu = run_pass(cli, ops)
        check(outputs)
        walls.append(wall)
        cpus.append(cpu)
        # Spread the set-up probes over the run, as the passes are.
        setups += [setup_probe(src) for _ in range(SETUP_PROBES_PER_PASS)]
    print(f"wall_s {_quartiles(walls)}")
    print(f"cpu_s {_quartiles(cpus)}")
    print(f"setup_s {_quartiles(setups)}")
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": (check.attempted - check.failed) / check.attempted,
    }


def per_layer(package, ops, check, seconds, spans_path, header) -> dict:
    from tracing import Tracer, summarize

    cli = package.cli
    check(run_pass(cli, ops)[0])  # warm-up
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds:
        outputs, wall, _ = run_pass(cli, ops)
        check(outputs)
        plain.append(wall)
        tracer = Tracer(package)
        try:
            tracer.install()
            outputs, wall, _ = run_pass(cli, ops, tracer)
        finally:
            tracer.uninstall()
        counters = check(outputs)
        traced.append(wall)
        stdout_bytes = sum(len(stdout.encode()) for _, stdout in outputs)
        layers.append(summarize(tracer, counters, wall, stdout_bytes))
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    _report_split(metrics, plain, traced)
    _write_spans(spans_path, tracer, ops, header)
    return metrics


def with_units(metrics: dict, declared: list) -> dict:
    """Attach the units of ``BENCHMARK.json``; the names must match it."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise ValueError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def _report_split(metrics, plain, traced) -> None:
    print(f"untraced wall_s {_quartiles(plain)}")
    print(f"traced wall_s {_quartiles(traced)}")
    print("share of traced wall_s by phase: " + ", ".join(
        f"{name[6:]} {metrics[name]:.3f}" for name in sorted(metrics) if name.startswith("split.")))
    print("self time share by layer: " + ", ".join(
        f"{name.split('.')[0]} {metrics[name]:.3f}" for name in metrics if name.endswith(".self_share")))


def _write_spans(path: Path, tracer, ops, header: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(f"# {header}\n# spans of the last traced pass; times in s from its first span\n")
        for i, op in enumerate(ops):
            f.write(f"# op {i}: {op.key}\n")
        f.write("id,parent,op,name,start,end,busy\n")
        spans = tracer.spans
        t0 = min(s[1] for s in spans if s is not None)
        for sid, s in enumerate(spans):
            if s is not None:
                name, start, end, busy, parent, op = s
                f.write(f"{sid},{parent},{op},{name},{start - t0:.7f},{end - t0:.7f},{busy:.7f}\n")


def parse_args(argv, spec):
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    args = parse_args(argv, spec)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hadcover
    import hadcover.cli
    from workloads import build

    ops = build(args.workload, args.seed)
    check = Checker(ops, json.loads(GOLDEN.read_text()))
    header = (f"workload {args.workload}, seed {args.seed}, {len(ops)} ops per pass; "
              f"load: 1 process, 1 thread, closed loop of 1 client; "
              f"python {platform.python_version()}; nproc {len(os.sched_getaffinity(0))}")
    print(f"hadcover benchmark, trace {args.trace}: {header}")
    if args.trace:
        spans_path = ROOT / ".bench_build" / "hadcover-bench" / f"spans-{args.workload}.csv"
        metrics = with_units(per_layer(hadcover, ops, check, args.seconds, spans_path, header),
                             spec["per_layer"])
    else:
        metrics = with_units(end_to_end(hadcover.cli, ops, check, args.seconds, src),
                             spec["end_to_end"])
    for problem in check.problems[:20]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
