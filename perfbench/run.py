"""Benchmark of incentiveledger, end to end and per layer, from outside.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each repeat of a workload runs `incentiveledger.cli.main` in a fresh child
process writing into a fresh temporary directory under `.perfbench_out/`,
which is deleted once the report tree has been checked and hashed. With
several workloads the repeats go round-robin, so a drift in host speed
hits every workload alike. Repeats continue while the next one is
expected to end within --seconds, and until every seed of the workload
has run and one has run twice (with --trace 1, the traced run is that
second run).

With --trace 0 the last line of stdout carries the end-to-end metrics:
medians over the repeats of the command's wall time, actions per second,
set-up time and peak RSS. Times are in seconds at reference speed: each
child samples its core's speed with a fixed loop (see child.py) and its
wall times are scaled by it, because the cores of a shared host change
speed by ~2x, for milliseconds to tens of seconds at a time; raw medians
are printed alongside. Set-up is timed in set-up-only probes: SETUP_SAMPLES // 2 at
the start, one after each repeat, and at the end as many as it takes to
make SETUP_SAMPLES. With --trace 1 one extra traced run per workload
installs the span timers of tracer.py and the last line carries the
per-layer metrics. Every run must complete (which includes reconciling)
and report its configured action count, and the report tree's sha256
must be the same in every repeat, traced run included; otherwise the
command exits 1. See README.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT_ROOT = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 170
SETUP_SAMPLES = 15


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    actions: int  # every run must report exactly this many
    streams: int = 1  # seeds per invocation for a single-run command
    grid_seeds: int = 1  # seeds per grid cell of a sweep, from the base seed
    cells: int = 1

    def seeds(self, base: int) -> list[int]:
        """The seeds one invocation cycles through; disjoint across bases."""
        return [base * self.streams + i for i in range(self.streams)]

    def cli_args(self, seed: int) -> list[str]:
        return list(self.args) if self.grid_seeds > 1 else [*self.args, "--seed", str(seed)]

    @property
    def runs(self) -> int:
        return self.grid_seeds * self.cells


# Seed-to-seed differences in work and memory are about +-10% on the
# single runs (a standard deviation of ~5% on scale-20k, ~6% on
# update-heavy), so one invocation runs distinct streams and reports
# medians over them; the grid already spans 30 streams.
WORKLOADS = {
    "paper-grid": Workload(
        ("sweep", "--scenarios", "2,3", "--access-fractions", "1,5,10,25", "--seeds", "30"),
        actions=500, grid_seeds=30, cells=8,
    ),
    "scale-20k": Workload(
        ("run", "--actions", "20000", "--accounts", "20000", "--max-providers", "2",
         "--gas-price-gwei", "1"),
        actions=20000, streams=6,
    ),
    "update-heavy": Workload(
        ("run", "--actions", "20000", "--accounts", "20000", "--max-providers", "20",
         "--provider-prob-max", "0.5"),
        actions=20000, streams=10,
    ),
}

# name -> (unit, higher is better)
END_TO_END = {
    "wall_s": ("s", False),
    "actions_per_s": ("1/s", True),
    "setup_s": ("s", False),
    "peak_rss_mb": ("MB", False),
}

BUILDS = ("actions", "periods", "contracts", "profit", "cost_overlay", "requester_costs",
          "top_requesters", "cost_distribution", "transactions", "tokens", "population",
          "registry", "other")

# Span name -> the aggregates reported for it.
SPAN_METRICS = [
    ("engine.run_simulation", ("calls", "busy_s", "self_s")),
    ("tokens.live_tokens", ("calls", "busy_s")),
    ("agents.decay_renewal_prob", ("calls",)),
    ("tokens.renew_access_time", ("calls", "busy_s")),
    ("agents.generate_population", ("calls", "busy_s")),
    ("chain.create_accounts", ("busy_s",)),
    ("registry.bootstrap", ("calls", "self_s")),
    ("dataset.update_data", ("calls", "self_s")),
    ("tokens.invalidate_compliance", ("calls", "busy_s")),
    ("dataset.deploy_and_publish", ("calls", "busy_s")),
    ("tokens.request_access", ("calls", "busy_s")),
    ("tokens.quote_payment", ("calls", "busy_s")),
    ("tokens.confirm_compliance", ("calls",)),
    ("chain.execute", ("calls", "busy_s")),
    ("reporting.reconcile", ("busy_s",)),
    ("reporting.summarize", ("self_s",)),
    *((f"reporting.build.{name}", ("busy_s",)) for name in BUILDS),
    ("reporting.write_run_reports", ("calls", "self_s")),
    ("cli.build_sim_config", ("calls", "busy_s")),
    ("cli.main", ("self_s",)),
]
COUNTERS = ("engine.periods", "engine.actions", "engine.streams", "tokens.live_tokens.yielded",
            "tokens.live_tokens.peak", "tokens.events", "chain.receipts")


@dataclass
class Rep:
    """One child process: one run of a workload's command."""

    seed: int = 0
    code: int | None = None
    wall_s: float = 0.0
    setup_s: float | None = None
    rss_mb: float = 0.0
    completed: int = 0
    actions: int = 0
    digest: str = ""
    files: int = 0
    bytes: int = 0
    speed: float = 1.0  # seconds at reference speed per wall second
    errors: list[str] = field(default_factory=list)
    trace: dict | None = None


def run_child(options: list[str], cli_args: list[str], tmp: Path) -> Rep:
    result_path = tmp / "child.json"
    argv = [sys.executable, str(CHILD), str(result_path), *options, "--", *cli_args]
    rep = Rep()
    with open(tmp / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: stop the child too
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        rep.wall_s = time.monotonic() - start
    proc.returncode = rep.code = os.waitstatus_to_exitcode(status)
    rep.rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    try:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        result = {}
    if result.get("setup_end") is not None:
        rep.setup_s = result["setup_end"] - start
    rep.trace = result.get("trace")
    rep.speed = result.get("speed", 1.0)
    if rep.code != 0:
        tail = (tmp / "stderr.txt").read_text(encoding="utf-8", errors="replace").strip()
        rep.errors.append(f"exit {rep.code}: {tail[-600:]}")
    return rep


def run_workload(workload: Workload, seed: int, trace: bool) -> Rep:
    tmp = Path(tempfile.mkdtemp(dir=OUT_ROOT))
    try:
        reports = tmp / "reports"
        options = ["--trace"] if trace else []
        if workload.grid_seeds > 1:
            options += ["--seed-offset", str(seed)]
        rep = run_child(options, [*workload.cli_args(seed), "--out", str(reports)], tmp)
        rep.seed = seed
        check_reports(workload, seed, reports, rep)
        return rep
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def probe_setup() -> tuple[float, float] | None:
    """Set-up time of one probe child: (at reference speed, raw)."""
    tmp = Path(tempfile.mkdtemp(dir=OUT_ROOT))
    try:
        rep = run_child(["--probe"], [], tmp)
        return None if rep.setup_s is None else (rep.setup_s * rep.speed, rep.setup_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_reports(workload: Workload, seed: int, reports: Path, rep: Rep) -> None:
    """Hash the report tree and check every summary.csv in it."""
    digest = hashlib.sha256()
    seeds_seen = []
    for path in sorted(p for p in reports.rglob("*") if p.is_file()) if reports.is_dir() else ():
        data = path.read_bytes()
        rel = path.relative_to(reports).as_posix()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
        rep.files += 1
        rep.bytes += len(data)
        if path.name != "summary.csv":
            continue
        header, row = data.decode().splitlines()[:2]
        summary = dict(zip(header.split(","), row.split(",")))
        run_seed = int(summary["seed"])
        seeds_seen.append(run_seed)
        if path.parent.name != f"run-{run_seed}":
            rep.errors.append(f"{rel}: seed {run_seed} written under {path.parent.name}")
        elif int(summary["actions"]) != workload.actions:
            rep.errors.append(f"{rel}: {summary['actions']} actions, expected {workload.actions}")
        else:
            rep.completed += 1
            rep.actions += workload.actions
    rep.digest = digest.hexdigest()
    expected = sorted(seed + i for i in range(workload.grid_seeds) for _ in range(workload.cells))
    if rep.code == 0 and sorted(seeds_seen) != expected:
        rep.errors.append(
            f"report tree holds seeds {sorted(set(seeds_seen))[:5]}..., expected "
            f"{workload.cells} x seeds {seed}..{seed + workload.grid_seeds - 1}"
        )


def worst_tail(values: list[float], higher_is_better: bool) -> str:
    """The highest percentile on the bad side with at least ten samples beyond it."""
    ordered = sorted(values, reverse=higher_is_better)
    for pct in (99.9, 99, 90, 75):
        if len(ordered) * (1 - pct / 100) >= 10:
            return f"p{pct:g} {ordered[math.ceil(pct / 100 * len(ordered)) - 1]:.6g}"
    return f"worst {ordered[-1]:.6g}"


def end_to_end(reps: list[Rep], setups: list[tuple[float, float]]) -> dict[str, tuple[list, list]]:
    """Metric -> (values at reference speed, raw values)."""
    done = [r for r in reps if r.code == 0]
    return {
        "wall_s": ([r.wall_s * r.speed for r in done], [r.wall_s for r in done]),
        "actions_per_s": ([r.actions / (r.wall_s * r.speed) for r in done],
                          [r.actions / r.wall_s for r in done]),
        "setup_s": ([s for s, _ in setups], [raw for _, raw in setups]),
        "peak_rss_mb": ([r.rss_mb for r in done], None),
    }


def per_layer(traced: Rep, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    spans = {"calls": {}, "self_s": {}, "busy_s": {}}
    for name, _parent, calls, self_s, busy_s in traced.trace["spans"]:
        for key, value in (("calls", calls), ("self_s", self_s), ("busy_s", busy_s)):
            spans[key][name] = spans[key].get(name, 0) + value
    metrics = {}
    for name, fields in SPAN_METRICS:
        for key in fields:
            metrics[f"{name}.{key}"] = (spans[key].get(name, 0), "count" if key == "calls" else "s")
    counters = traced.trace["counters"]
    for name in COUNTERS:
        metrics[name] = (counters.get(name, 0), "count")
    simulations = spans["calls"].get("engine.run_simulation", 0)
    yielded = counters.get("tokens.live_tokens.yielded", 0)
    renewals = spans["calls"].get("tokens.renew_access_time", 0)
    metrics["engine.simulations_per_stream"] = (simulations / max(1, counters["engine.streams"]), "ratio")
    metrics["tokens.renewal_yield"] = (renewals / yielded if yielded else 0.0, "ratio")
    metrics["reporting.write.files"] = (traced.files, "count")
    metrics["reporting.write.bytes"] = (traced.bytes, "B")
    metrics["trace.wall_s"] = (traced.wall_s, "s")
    metrics["trace.overhead_s"] = (traced.wall_s - untraced_wall_s, "s")
    return metrics


def environment() -> str:
    rev = "unknown"
    if (ROOT / ".git").exists():  # else git would search the parent directories
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            rev = git.stdout.strip() if git.returncode == 0 else rev
        except (OSError, subprocess.SubprocessError):
            pass
    fs, mount = "unknown", ""
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                point, kind = line.split()[1:3]
                inside = str(OUT_ROOT) == point or str(OUT_ROOT).startswith(point.rstrip("/") + "/")
                if inside and len(point) >= len(mount):
                    fs, mount = kind, point
    except OSError:
        pass
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"python {platform.python_version()}, {os.cpu_count()} cores, git rev {rev}, "
            f"output fs {fs} at {mount or '?'}, load average {load}")


def report(name: str, reps: list[Rep], setups: list[tuple[float, float]],
           traced: Rep | None) -> tuple[bool, int, int, dict]:
    """Print one workload's checks and metrics.

    Returns (correct, runs attempted, runs failed, metrics)."""
    workload = WORKLOADS[name]
    runs = reps + ([traced] if traced else [])
    errors = [e for r in runs for e in r.errors]
    print(f"{name}: {' '.join(workload.args)}")
    for seed in sorted({r.seed for r in runs}):
        same = [r for r in runs if r.seed == seed]
        digests = sorted({r.digest for r in same})
        if len(digests) > 1:
            errors.append(f"seed {seed}: report digest differs between repeats: {digests}")
        seeds = f"{seed}..{seed + workload.grid_seeds - 1}" if workload.grid_seeds > 1 else seed
        print(f"  seed {seeds}: report tree sha256 {'/'.join(digests)}, {same[0].files} files, "
              f"{same[0].bytes} bytes, identical in {len(same)} run(s): {len(digests) == 1}")
    for error in errors:
        print(f"  ERROR {error}")
    attempted = workload.runs * len(runs)
    failed = sum(workload.runs - r.completed for r in runs)
    print(f"  {'run_failures':<14} {'ratio':<6} n={attempted:<5} {failed / attempted:.6g}")
    metrics = {}
    if traced is not None:
        if traced.trace is None:
            return False, attempted, failed, metrics
        for span, parent, calls, self_s, busy_s in traced.trace["spans"]:
            print(f"  span {span:<34} <- {parent or '-':<30} calls {calls:<8} "
                  f"self {self_s:.4f} s  busy {busy_s:.4f} s")
        untraced = statistics.median(r.wall_s for r in reps if r.seed == traced.seed)
        for metric, (value, unit) in per_layer(traced, untraced).items():
            print(f"  {metric:<44} {unit:<6} {value:.6g}")
            metrics[metric] = {"value": value, "unit": unit}
        return not errors, attempted, failed, metrics
    while len(setups) < SETUP_SAMPLES:
        sample = probe_setup()
        if sample is None:
            errors.append("set-up probe failed")
            break
        setups.append(sample)
    for metric, (values, raw) in end_to_end(reps, setups).items():
        unit, higher = END_TO_END[metric]
        if values:
            value = statistics.median(values)
            raw_text = f"  (raw median {statistics.median(raw):.6g})" if raw else ""
            print(f"  {metric:<14} {unit:<6} n={len(values):<5} median {value:.6g}  "
                  f"{worst_tail(values, higher)}{raw_text}")
            metrics[metric] = {"value": value, "unit": unit}
    speeds = [r.speed for r in reps]
    print(f"  {'speed':<14} {'s/s':<6} n={len(speeds):<5} median {statistics.median(speeds):.6g}  "
          f"range {min(speeds):.6g}..{max(speeds):.6g} (reference-speed seconds per wall second)")
    return not errors, attempted, failed, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running child is stopped and the
    # temporary report tree removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "incentiveledger" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no incentiveledger sources under {ROOT / 'src'}\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seeds = {name: WORKLOADS[name].seeds(args.seed) for name in names}
    # Without a traced run, one seed runs twice so its digest is compared.
    min_reps = {name: len(seeds[name]) + (0 if args.trace else 1) for name in names}

    OUT_ROOT.mkdir(exist_ok=True)
    print(f"# perfbench: {environment()}", flush=True)
    print(f"# seed {args.seed}, {args.seconds:g} s, trace {args.trace}", flush=True)
    probe_setup()  # warm-up: compiles bytecode on a fresh checkout, not counted
    reps: dict[str, list[Rep]] = {name: [] for name in names}
    setups: dict[str, list[tuple[float, float]]] = {name: [] for name in names}
    # Set-up is sampled at the start, after every repeat and at the end, so
    # that its median spans the run's changes of host speed.
    for name in names if not args.trace else ():
        setups[name] = [s for s in (probe_setup() for _ in range(SETUP_SAMPLES // 2)) if s]
    start = time.monotonic()
    out_of_time = False
    while todo := [n for n in names if len(reps[n]) < min_reps[n] or not out_of_time]:
        for name in todo:
            seed = seeds[name][len(reps[name]) % len(seeds[name])]
            reps[name].append(run_workload(WORKLOADS[name], seed, trace=False))
            if not args.trace and (sample := probe_setup()) is not None:
                setups[name].append(sample)
        round_s = sum(statistics.median(r.wall_s for r in reps[name]) for name in names)
        reserve = 1.5 * round_s if args.trace else 0.0  # the traced runs still to come
        out_of_time = time.monotonic() - start + round_s / 2 + reserve > args.seconds
    traced = {name: run_workload(WORKLOADS[name], seeds[name][0], trace=True)
              for name in names} if args.trace else {}

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, tried, lost, found = report(name, reps[name], setups[name], traced.get(name))
        correct, attempted, failed = correct and ok, attempted + tried, failed + lost
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + metric: value for metric, value in found.items()})
    try:
        OUT_ROOT.rmdir()
    except OSError:
        pass
    correct = correct and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
