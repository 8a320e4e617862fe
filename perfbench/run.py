#!/usr/bin/env python3
"""wittcycles benchmark: seeded closed-loop CLI workloads, one client.

Each op is one in-process ``wittcycles.cli.main(argv)`` call with stdout
captured, so it covers file parse, compute, the program's own cross-checks
and the JSON emit, but not interpreter start. Outputs are checked against
``reference.py`` between ops, outside the timed region.

    python3 perfbench/run.py --workload report-dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Run outputs (graph
files, result summaries, spans) go to ``.perfbench_out/`` in the checkout.
See perfbench/README.md for why each workload exists and what each metric
should move.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNT_METRICS, TraceError, Tracer  # noqa: E402

# set_up runs this many times per run and setup_s is their median: one
# set-up takes ~50 ms and is at the mercy of file-system and import noise.
SETUP_REPEATS = 11
CONTROL_TRACE = 4
# op_p90_s needs ten samples beyond it; a slow host runs past --seconds for them.
MIN_OPS = 100


class SetupError(Exception):
    """The program or its inputs cannot be set up; no result is printed."""


def import_program():
    """Import wittcycles afresh from the checkout's src/, never from elsewhere."""
    for name in [m for m in sys.modules if m == "wittcycles" or m.startswith("wittcycles.")]:
        del sys.modules[name]
    if not (SRC / "wittcycles" / "__init__.py").is_file():
        raise SetupError(f"no wittcycles package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("wittcycles.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"wittcycles was imported from {cli.__file__}, not {SRC}")
    return cli


def set_up(workload: str, seed: int):
    """Import the program, draw the workload's inputs and write its graph files."""
    cli = import_program()
    inputs = workloads.build(workload, seed)
    inputs.write(OUT / f"{workload}-seed{seed}" / "graphs")
    return cli, inputs


def call(cli, argv: list[str]) -> tuple[float, int | None, str, str]:
    """Run one CLI op; returns (seconds, exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed op, not a failed benchmark
            rc = None
            traceback.print_exc()
        elapsed = perf_counter() - start
    return elapsed, rc, out.getvalue(), err.getvalue()


class Runner:
    """Runs a workload's ops and checks each output outside the timed call."""

    def __init__(self, cli, inputs: workloads.Inputs):
        self.cli = cli
        self.inputs = inputs
        self.facts = [reference.GraphFacts(v, e) for v, e in inputs.graphs]
        self.verified: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, op: workloads.Op, stdout: str) -> str | None:
        graphs = [self.facts[k] for k in op.graphs]
        if op.kind == "report":
            return reference.check_report(stdout, graphs[0], op.param)
        if op.kind == "oracle":
            return reference.check_oracle(stdout, graphs[0], op.param)
        if op.kind == "necklace":
            return reference.check_necklace(stdout, graphs[0], op.param)
        names = [self.inputs.paths[k].stem for k in op.graphs]
        return reference.check_verify(stdout, names, graphs, op.param)

    def run(self, index: int) -> tuple[float, str]:
        """Run op index (mod the op list) once; returns (seconds, stdout)."""
        index %= len(self.inputs.ops)
        op = self.inputs.ops[index]
        elapsed, rc, stdout, stderr = call(self.cli, self.inputs.argv(op))
        self.attempted += 1
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if rc != 0:
            reason = f"exit code {rc}: {stderr.strip()[-300:]}"
        elif index in self.verified:
            reason = None if self.verified[index] == digest else "stdout differs from an earlier run"
        else:
            try:
                reason = self.check(op, stdout)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"unreadable output: {exc!r}"
            if reason is None:
                self.verified[index] = digest
        if reason is not None:
            self.failures.append(f"op {index} {' '.join(self.inputs.argv(op))}: {reason}")
        return elapsed, stdout

    def stdout_digests(self) -> list[str]:
        """The sha256 of each op's stdout, in op-list order; ops the timed loop
        did not reach are run now, untimed."""
        for index in range(len(self.inputs.ops)):
            if index not in self.verified:
                self.run(index)
        return [self.verified.get(index, "failed") for index in range(len(self.inputs.ops))]


def negative_control(cli, seed: int) -> list[str]:
    """Checks that must fail, never timed. Returns what did not fail."""
    problems = []
    control = workloads.control_group(seed)
    control.write(OUT / f"control-seed{seed}")
    argv = control.argv(control.ops[0]) + ["--perturb-trace", str(CONTROL_TRACE)]
    _, rc, _, _ = call(cli, argv)
    if rc != 1:
        problems.append(f"verify --perturb-trace {CONTROL_TRACE} exited {rc}, expected 1")
    facts = reference.GraphFacts(*control.graphs[1])
    _, rc, stdout, _ = call(cli, ["report", str(control.paths[1]), "--order", "12"])
    if rc != 0 or reference.check_report(stdout, facts, 12) is not None:
        problems.append("the checker rejected a correct report")
    else:
        doc = json.loads(stdout)
        doc["traces"][CONTROL_TRACE - 1] = str(int(doc["traces"][CONTROL_TRACE - 1]) + 1)
        if reference.check_report(json.dumps(doc), facts, 12) is None:
            problems.append("the checker accepted a trace list that is off by one")
    return problems


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, Runner, list[str], dict]:
    setups, setup_tasks = [], [calibration.task_seconds()]
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        cli, inputs = set_up(workload, seed)
        setups.append(perf_counter() - start)
        setup_tasks.append(calibration.task_seconds())
    runner = Runner(cli, inputs)
    problems = negative_control(cli, seed)

    latencies: list[float] = []
    tasks = [calibration.task_seconds()]
    busy = 0.0
    while busy < seconds or len(latencies) < MIN_OPS:
        elapsed, _ = runner.run(len(latencies))
        latencies.append(elapsed)
        busy += elapsed
        tasks.append(calibration.task_seconds())
    digests = runner.stdout_digests()
    sha = hashlib.sha256("".join(digests).encode()).hexdigest()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = calibration.scale(latencies, tasks)
    metrics = {
        "ops_per_s": metric(len(scaled) / sum(scaled), "1/s"),
        "op_p50_s": metric(statistics.median(scaled), "s"),
        "op_p90_s": metric(p90(scaled), "s"),
        "setup_s": metric(statistics.median(calibration.scale(setups, setup_tasks)), "s"),
        "peak_rss_mib": metric(peak_kib / 1024, "MiB"),
    }
    raw = {"ops_per_s": len(latencies) / busy, "op_p50_s": statistics.median(latencies),
           "op_p90_s": p90(latencies), "setup_s": statistics.median(setups),
           "task_median_s": statistics.median(tasks)}
    extra = {"samples": len(latencies), "stdout_sha256": sha,
             "op_stdout_sha256": digests, "setup_samples": len(setups), "unscaled": raw,
             "latencies": latencies, "tasks": tasks, "setups": setups}
    return metrics, runner, problems, extra


def traced(workload: str, seed: int, seconds: int) -> tuple[dict, Runner, list[str], dict]:
    cli, inputs = set_up(workload, seed)
    runner = Runner(cli, inputs)
    problems = negative_control(cli, seed)
    tracer = Tracer()

    def one_pass() -> tuple[float, float, list[str]]:
        """Run the whole op list once: (op seconds, calibration scale, stdouts)."""
        total, tasks, stdouts = 0.0, [calibration.task_seconds()], []
        for i in range(len(inputs.ops)):
            tracer.op = i
            elapsed, stdout = runner.run(i)
            total += elapsed
            stdouts.append(stdout)
            tasks.append(calibration.task_seconds())
        return total, calibration.REFERENCE_S / statistics.median(tasks), stdouts

    plain_times, traced_times, per_pass, first_counts, first_spans = [], [], [], None, None
    one_pass()  # warm-up, so the first plain pass is not the cold one
    start = perf_counter()
    # At least two traced passes, so that the counts are seen to repeat.
    while len(per_pass) < 2 or perf_counter() - start < seconds:
        total, factor, _ = one_pass()
        plain_times.append(total * factor)
        tracer.install()
        try:
            total, factor, stdouts = one_pass()
        finally:
            tracer.uninstall()
        spans, counts = tracer.take()
        verify_counts = [json.loads(out)["counts"] for op, out in zip(inputs.ops, stdouts)
                         if op.kind == "verify" and out]
        counts["cli.checks_run"] = sum(c["passed"] + c["failed"] for c in verify_counts)
        counts["cli.checks_skipped"] = sum(c["skipped"] for c in verify_counts)
        if first_counts is None:
            first_counts, first_spans = counts, spans
        elif counts != first_counts:
            problems.append(f"trace counts differ between passes: {dict(first_counts)} vs {dict(counts)}")
        traced_times.append(total * factor)
        per_pass.append({name: value * factor for name, value in tracer.self_times(spans).items()})

    tracer.dump(first_spans, OUT / f"{workload}-seed{seed}" / "spans.tsv")
    metrics = {}
    for name in per_pass[0]:
        metrics[name] = metric(statistics.median(p[name] for p in per_pass), "s")
    for name in COUNT_METRICS + ("cli.checks_run", "cli.checks_skipped"):
        metrics[name] = metric(first_counts[name], "count")
    walked = first_counts["oracle.cycles_walked"]
    metrics["oracle.useful_ratio"] = metric(
        first_counts["oracle.nonperiodic_classes"] / walked if walked else 0.0, "ratio")
    metrics["trace.pass_s"] = metric(statistics.median(traced_times), "s")
    metrics["trace_overhead_frac"] = metric(
        statistics.median(traced_times) / statistics.median(plain_times) - 1, "ratio")
    extra = {"passes": len(per_pass), "pass_ops": len(inputs.ops), "spans_per_pass": len(first_spans)}
    return metrics, runner, problems, extra


def print_summary(workload: str, seed: int, trace: bool, metrics: dict, runner: Runner,
                  extra: dict, props: dict, failures: list[str]) -> None:
    attempted, failed = runner.attempted, len(runner.failures)
    print(f"# {workload} seed={seed} trace={int(trace)} attempted={attempted} failed={failed} "
          f"fail_frac={failed / attempted:.4f}")
    print(f"# inputs {json.dumps(props, sort_keys=True)}")
    if not trace:
        print(f"# stdout_sha256 {extra['stdout_sha256']} (over the {len(runner.inputs.ops)} "
              "per-op stdout hashes of one pass)")
        raw = extra["unscaled"]
        print(f"# op times are scaled to the reference host speed; this run's "
              f"calibration task median is {raw['task_median_s']:.5g} s "
              f"(reference {calibration.REFERENCE_S} s)")
        for name, m in metrics.items():
            n = extra["setup_samples"] if name == "setup_s" else extra["samples"]
            unscaled = f"  unscaled {raw[name]:.6g}" if name in raw else ""
            print(f"  {name:<14} {m['value']:>12.6g} {m['unit']:<4} n={n}{unscaled}")
    else:
        pass_s = metrics["trace.pass_s"]["value"]
        print(f"# traced passes={extra['passes']} ops/pass={extra['pass_ops']} "
              f"spans/pass={extra['spans_per_pass']}")
        for name, m in metrics.items():
            share = f"{m['value'] / pass_s:7.1%} of op time" if name.endswith("_s") and \
                name != "trace.pass_s" else ""
            print(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<6} {share}")
    for failure in failures[:5]:
        print(f"# FAILED {failure}")


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> int:
    try:
        if trace:
            metrics, runner, problems, extra = traced(workload, seed, seconds)
        else:
            metrics, runner, problems, extra = end_to_end(workload, seed, seconds)
    except (SetupError, TraceError, ImportError, OSError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    props = workloads.properties(runner.inputs, runner.facts)
    failures = [f"negative control: {p}" for p in problems] + runner.failures
    print_summary(workload, seed, trace, metrics, runner, extra, props, failures)
    correct = not failures
    result = {"correct": correct, "attempted": runner.attempted, "failed": len(runner.failures),
              "metrics": metrics}
    summary = dict(result, workload=workload, seed=seed, trace=trace, inputs=props,
                   failures=failures, **extra)
    (OUT / f"{workload}-seed{seed}" / f"result-trace{int(trace)}.json").write_text(
        json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Run every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
