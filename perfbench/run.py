"""ulabeam benchmark: CLI workloads run in-process through ``ulabeam.cli.main``.

Usage (from the repository root):

    python3 perfbench/run.py --workload field_map --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, table

One process per workload, one client in a closed loop: the next command
starts when the previous one returns. No threads are started. The program
only ever sees scenario files generated from ``--seed``.

``--trace 0`` times whole rounds of commands until ``--seconds`` of command
time has passed and reports the end-to-end metrics. ``--trace 1`` runs a
fixed, seed-determined list of commands twice, untraced and then with
spans recorded around the package's public functions, and reports the
per-layer metrics and the tracing overhead. Either way the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A fuller report (machine, input properties, all metrics) is printed as a
``report`` line before it and written under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

COLD_STARTS = 5
IMPORTTIME_RUNS = 3
# Command seconds of one round on a 2-vCPU Xeon guest, as measured when
# this benchmark was added; sets how many rounds a traced run replays
# (about half of --seconds per pass).
ROUND_NOMINAL_S = {"field_map": 3.2, "coverage_compare": 6.0, "design_sweep": 0.3}
# Round index of the warm-up command, outside the rounds that are timed.
WARMUP_ROUND = 2**31 - 1
# Round-0 commands are re-run after the timed loop, until this many
# seconds of their first-run time, to check byte-identical outputs.
RERUN_BUDGET_S = 2.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- machine --------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _size_bytes(text: str | None) -> int | None:
    if not text:
        return None
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def describe_machine() -> dict:
    model = None
    info = _read("/proc/cpuinfo") or ""
    for line in info.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for i in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{i}"
        level, kind = _read(f"{base}/level"), _read(f"{base}/type")
        if level is None:
            break
        label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind or "", "")
        caches[label] = _size_bytes(_read(f"{base}/size"))

    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    out = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "caches_bytes": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "pyyaml": version("PyYAML"),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k in THREAD_VARS or k.endswith("_NUM_THREADS")},
    }
    return out


def chunk_vs_caches(field_module, machine: dict) -> dict:
    """The field kernel's per-chunk complex temporary against the caches."""
    pairs = getattr(field_module, "_CHUNK_PAIRS", None)
    if pairs is None:
        return {"chunk_pairs": None}
    chunk_bytes = pairs * 16
    out = {"chunk_pairs": pairs, "chunk_complex_bytes": chunk_bytes}
    for level in ("L2", "L3"):
        size = machine["caches_bytes"].get(level)
        if size:
            out[f"chunk_over_{level}"] = chunk_bytes / size
    return out


# -- machine speed --------------------------------------------------------

# On a shared 2-vCPU KVM guest, speed was seen to drift by up to 1.5x over
# seconds (host contention: the process's CPU time tracks its wall time, so
# it is not preemption). Timed
# values are therefore rescaled by a fixed reference computation, timed
# between commands, to the speed at which it takes PROBE_REF_S: a command
# timed while the probe runs 20% slow counts 20% shorter. Raw wall times
# are kept in the report under wall_*.
PROBE_REF_S = 0.0015
# Command seconds between two probes.
PROBE_WINDOW_S = 0.25
_PROBE_ARRAY = np.linspace(0.0, 1.0, 50_000)


def _probe_once() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i
    a = _PROBE_ARRAY
    for _ in range(4):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def probe_s() -> float:
    """Median of three runs of the reference computation."""
    return statistics.median(_probe_once() for _ in range(3))


class SpeedClock:
    """Collects command times and rescales each window by the probes around it."""

    def __init__(self) -> None:
        self.last = probe_s()
        self.probes = [self.last]
        self.pending: list[float] = []
        self.wall: list[float] = []
        self.scaled: list[float] = []

    def add(self, elapsed: float) -> None:
        self.pending.append(elapsed)
        self.wall.append(elapsed)
        if sum(self.pending) >= PROBE_WINDOW_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        now = probe_s()
        factor = PROBE_REF_S / (0.5 * (self.last + now))
        self.scaled += [t * factor for t in self.pending]
        self.probes.append(now)
        self.last = now
        self.pending = []


# -- set-up: fresh interpreters importing the CLI ---------------------------


def _fresh_import(extra: list[str]) -> tuple[float, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *extra, "-c", "import ulabeam.cli"],
        env=env,
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise Fatal(f"a fresh interpreter cannot import ulabeam.cli:\n{proc.stderr}")
    return elapsed, proc.stderr


# Both run after the benchmark's own import of ulabeam has written the
# bytecode caches, which a user's first run pays only once.
def cold_start_s() -> tuple[float, float]:
    """Median time of a fresh interpreter importing ulabeam.cli: (rescaled, wall)."""
    clock = SpeedClock()
    for _ in range(COLD_STARTS):
        clock.add(_fresh_import([])[0])
        clock.flush()
    return statistics.median(clock.scaled), statistics.median(clock.wall)


def import_seconds() -> dict[str, float]:
    runs = [tracing.import_breakdown(_fresh_import(["-X", "importtime"])[1]) for _ in range(IMPORTTIME_RUNS)]
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


# -- running commands -----------------------------------------------------


class Runner:
    """Writes each command's scenario, runs it through cli.main, checks it."""

    def __init__(self, workload: str, seed: int, work: Path):
        sys.path.insert(0, str(SRC))
        import ulabeam
        import ulabeam.cli
        import ulabeam.field
        import ulabeam.metrics

        self.ulabeam = ulabeam
        self.cli = ulabeam.cli
        self.metrics = ulabeam.metrics
        self.field = ulabeam.field
        self.oracles = _load_oracles()
        self.gen = workloads.Generator(workload, seed, str(ROOT / "scenarios"))
        self.seed = seed
        self.work = work
        self.scenario_path = str(work / "scenario.yaml")
        self.out = str(work / "out")
        self.problems: list[str] = []
        self.statuses: list[str] = []

    def run(self, cmd: dict, call=None) -> tuple[int | None, float, str]:
        """Run one command; returns (exit code or None if it raised, seconds, stderr)."""
        workloads.dump(cmd["scenario"], self.scenario_path)
        shutil.rmtree(self.out, ignore_errors=True)
        argv = [cmd["argv"][0], "--scenario", self.scenario_path, "--out", self.out, *cmd["argv"][1:]]
        main = self.cli.main
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = call(main, argv) if call else main(argv)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
            except Exception as e:  # any crash of the program is a failed command
                rc = None
                err.write(repr(e))
            elapsed = time.perf_counter() - t0
        return rc, elapsed, err.getvalue()

    def check(self, index: int, cmd: dict, rc: int | None, stderr: str) -> bool:
        """Check the outputs of the command just run; False if it failed."""
        if rc is None:
            problems = [f"raised: {stderr.strip()[-300:]}"]
        else:
            rng = np.random.default_rng([self.seed, index])
            try:
                problems, status = checks.check_command(self.ulabeam, self.oracles, cmd, self.out, rc, rng)
            except Exception as e:  # a check that cannot read the output fails the command
                problems, status = [f"output unreadable: {e!r}"], None
            if status is not None:
                self.statuses.append(status)
        label = "warm-up" if index == WARMUP_ROUND else f"command {index}"
        for p in problems:
            self.problems.append(f"{label} ({cmd['argv'][0]}): {p}")
        return not problems

    def outputs(self) -> tuple[dict[str, str], dict[str, int]]:
        return checks.file_hashes(self.out), checks.bytes_in(self.out)

    def commands(self, rounds: range) -> list[dict]:
        return [cmd for r in rounds for cmd in self.gen.round(r)]

    def warm_up(self) -> None:
        cmd = self.gen.round(WARMUP_ROUND)[0]
        rc, _, stderr = self.run(cmd)
        self.check(WARMUP_ROUND, cmd, rc, stderr)


def _load_oracles():
    path = ROOT / "tests" / "oracles.py"
    if not path.is_file():
        raise Fatal(f"missing {path}")
    spec = importlib.util.spec_from_file_location("ulabeam_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _percentile_with_tail(times: list[float], q: float) -> float | None:
    """The q-quantile, or None when fewer than ten samples lie beyond it."""
    if len(times) * (1.0 - q) < 10:
        return None
    return float(np.quantile(np.array(times), q, method="inverted_cdf"))


def timed_run(runner: Runner, seconds: float) -> dict:
    runner.warm_up()
    clock = SpeedClock()
    failed: set[int] = set()
    first_round: list[tuple[dict, dict[str, str], float]] = []
    ran: list[dict] = []
    r = 0
    while sum(clock.wall) < seconds:
        for cmd in runner.gen.round(r):
            index = len(ran)
            rc, elapsed, stderr = runner.run(cmd)
            clock.add(elapsed)
            ran.append(cmd)
            if not runner.check(index, cmd, rc, stderr):
                failed.add(index)
            if r == 0:
                first_round.append((cmd, runner.outputs()[0], elapsed))
        r += 1
    clock.flush()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    spent = 0.0
    for index, (cmd, hashes, elapsed) in enumerate(first_round):
        if index and spent + elapsed > RERUN_BUDGET_S:
            break
        spent += elapsed
        rc, _, stderr = runner.run(cmd)
        if rc is None or runner.outputs()[0] != hashes:
            runner.problems.append(f"command {index} ({cmd['argv'][0]}): re-run outputs are not byte-identical")
            failed.add(index)

    n = len(ran)
    report = {
        "ops_per_s": (n / sum(clock.scaled), "1/s"),
        "cmd_p50_s": (statistics.median(clock.scaled), "s"),
        "wall_ops_per_s": (n / sum(clock.wall), "1/s"),
        "wall_cmd_p50_s": (statistics.median(clock.wall), "s"),
        "wall_cmd_max_s": (max(clock.wall), "s"),
        "probe_p50_s": (statistics.median(clock.probes), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "error_rate": (len(failed) / n, "share"),
        "commands": (n, "count"),
        "rounds": (r, "count"),
    }
    for key, times in (("cmd_p90_s", clock.scaled), ("wall_cmd_p90_s", clock.wall)):
        p90 = _percentile_with_tail(times, 0.9)
        if p90 is not None:
            report[key] = (p90, "s")
    return {"attempted": n, "failed": len(failed), "metrics": report, "commands": ran, "times": clock.wall}


def traced_run(runner: Runner, seconds: float, workload: str) -> dict:
    rounds = max(1, math.ceil(seconds / 2.0 / ROUND_NOMINAL_S[workload]))
    commands = runner.commands(range(rounds))
    runner.warm_up()
    failed: set[int] = set()

    # Both passes are speed-corrected, so the overhead compares like with like.
    untraced = SpeedClock()
    first_hashes = []
    for index, cmd in enumerate(commands):
        rc, elapsed, stderr = runner.run(cmd)
        untraced.add(elapsed)
        if not runner.check(index, cmd, rc, stderr):
            failed.add(index)
        first_hashes.append(runner.outputs()[0])
    untraced.flush()

    tracer = tracing.Tracer()
    tracer.install(runner.cli, runner.metrics)
    traced = SpeedClock()
    written = {"total": 0, "field.csv": 0}
    try:
        for index, cmd in enumerate(commands):
            tracer.command = index
            rc, elapsed, stderr = runner.run(cmd, call=tracer.call_main)
            traced.add(elapsed)
            if not runner.check(index, cmd, rc, stderr):
                failed.add(index)
            hashes, sizes = runner.outputs()
            if hashes != first_hashes[index]:
                runner.problems.append(f"command {index} ({cmd['argv'][0]}): outputs differ between the two passes")
                failed.add(index)
            written["total"] += sum(sizes.values())
            written["field.csv"] += sizes.get("field.csv", 0)
    finally:
        tracer.uninstall()
    traced.flush()
    tracer.finish()
    tracer.write(str(runner.work / "spans.jsonl"))

    layers = tracing.layer_metrics(
        tracer.spans, _obstructed_pairs(tracer.spans, commands), written, sum(map(workloads.unique_metric_pairs, commands))
    )
    traced_s, untraced_s = sum(traced.scaled), sum(untraced.scaled)
    layers["trace.ops_per_s"] = (len(commands) / traced_s, "1/s")
    layers["trace.untraced_ops_per_s"] = (len(commands) / untraced_s, "1/s")
    layers["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "share")
    for key, value in import_seconds().items():
        layers[f"import.{key}_s"] = (value, "s")
    return {"attempted": len(commands), "failed": len(failed), "metrics": layers, "commands": commands}


def _obstructed_pairs(spans: list[dict], commands: list[dict]) -> tuple[int, int]:
    """(blocked, all) point-element pairs over every field_grid call, by the checks' own segment test."""
    blocked = total = 0
    for span in spans:
        if span["name"] != "field.grid":
            continue
        a = span["grid"]
        x = np.linspace(a["x_range"][0], a["x_range"][1], a["nx"])
        y = np.linspace(a["y_range"][0], a["y_range"][1], a["ny"])
        gx, gy = np.meshgrid(x, y, indexing="ij")
        obstacle = checks.obstacle_of(commands[span["cmd"]]["scenario"].get("obstacle"))
        blocked += checks.blocked_pairs(obstacle, a["cfg"].element_xs(), gx.ravel(), gy.ravel())
        total += a["nx"] * a["ny"] * a["cfg"].n_elements
    return blocked, total


# -- entry points ---------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not (SRC / "ulabeam" / "cli.py").is_file() or not (ROOT / "scenarios").is_dir():
        raise Fatal(f"no ulabeam source tree at {ROOT} (expected src/ulabeam and scenarios/)")
    work = WORK / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    machine = describe_machine()
    runner = Runner(workload, seed, work)
    setup = None if trace else cold_start_s()
    result = traced_run(runner, seconds, workload) if trace else timed_run(runner, seconds)
    metrics = result["metrics"]
    if setup is not None:
        metrics["setup_s"] = (setup[0], "s")
        metrics["wall_setup_s"] = (setup[1], "s")
    machine["field_chunk"] = chunk_vs_caches(runner.field, machine)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, one client",
        "machine": machine,
        "inputs": workloads.input_properties(result["commands"]),
        "plan_statuses": {s: runner.statuses.count(s) for s in checks.STATUSES},
        "problems": runner.problems[:50],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "cmd_times_s": result.get("times"),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    with open(work / "report.json", "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    shutil.rmtree(runner.out, ignore_errors=True)
    return report


def final_line(report: dict, names: list[str]) -> dict:
    return {
        "correct": report["failed"] == 0 and not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: report["metrics"][name] for name in names},
    }


def _declared(trace: int) -> list[str]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in its own process, then one table of metrics."""
    results = {}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        with open(WORK / f"{workload}-seed{seed}-trace{trace}" / "report.json", "r", encoding="ascii") as fh:
            results[workload] = json.load(fh)
    for workload, report in results.items():
        print(f"== {workload}: attempted {report['attempted']}, failed {report['failed']}")
        for name, m in report["metrics"].items():
            print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
        for p in report["problems"]:
            print(f"  problem: {p}")
    names = _declared(trace)
    print(json.dumps({w: final_line(r, [n for n in names if n in r["metrics"]]) for w, r in results.items()}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        report = run_workload(args.workload, args.seed, args.seconds, args.trace)
        names = _declared(args.trace)
    except Fatal as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print("report " + json.dumps({k: report[k] for k in ("workload", "machine", "inputs", "plan_statuses", "problems")}, sort_keys=True))
    for p in report["problems"]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(final_line(report, names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
