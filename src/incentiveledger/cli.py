"""Command line front end.

Two commands: `run` executes one simulation and writes its report set,
`sweep` executes a grid over fractions, margins and a seed range and adds
aggregate tables on top. Settings resolve in three layers: built-in
defaults, then a key=value config file using the exact flag names, then
explicit flags. The config.txt echoed into every run directory parses
back as a config file and reproduces the run, given the same --gas-table:
settings carry no gas table.

A sweep's seeds run in worker processes, one per usable CPU and no more
than there are seeds. Each worker holds one seed at a time and writes its
run directories, and once into seed-S/ the population.csv and tokens.csv
they share. The report bytes and failure lines are those of a serial sweep.

`main` runs each command with the cyclic garbage collector off, then restores
its state: a run's state forms no cycles, so reference counting frees it
(tests/test_cli.py checks this). Library calls keep the caller's settings.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections.abc import Iterator
from pathlib import Path

from . import __version__
from .agents import PopulationConfig
from .chain import GWEI, GasSchedule, PriceModel, default_gas_schedule
from .dataset import Scenario
from .engine import SimConfig, build_start, run_simulation, settings, settle, simulate, with_seed
from .errors import ConfigError, EngineError, LedgerError
from .reporting import (REPORT_NAMES, SHARED_NAMES, break_even_csv, summary_text, sweep_csv, write_report,
                        write_run_reports, write_seed_reports)

OUT_ENV = "INCENTIVELEDGER_OUT"

# Flags, config-file keys, value types and defaults all come from the
# settings of the default config. An unset profit margin resolves per
# scenario, so its default is None.
_BASE = settings(SimConfig())
_TYPES = {flag: type(value) for flag, value in _BASE.items()}
_DEFAULTS = {**_BASE, "profit-margin": None}


def _read_text(path: Path, what: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def parse_config_file(path: Path) -> dict:
    """Flat key=value lines; blank lines and # comments allowed."""
    values: dict = {}
    for lineno, raw in enumerate(_read_text(path, "config").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key not in _TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _TYPES[key](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def load_gas_table(path: Path) -> GasSchedule:
    """Override parts of the default gas schedule from a JSON file.

    Shape: {"transactionGas": {tag: gas}, "perRequesterUpdateGas": gas};
    both sections are optional, and unknown sections and tags are rejected.
    GasSchedule checks the gas values themselves.
    """
    import json  # not at the top: only a gas table reads JSON
    base = default_gas_schedule()
    text = _read_text(path, "gas table")
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    unknown = set(data) - {"transactionGas", "perRequesterUpdateGas"}
    if unknown:
        raise ConfigError(f"{path}: unknown section(s) {sorted(unknown)}")
    overrides = data.get("transactionGas", {})
    if not isinstance(overrides, dict):
        raise ConfigError(f"{path}: transactionGas must be a JSON object")
    unknown = set(overrides) - set(base.transaction_gas)
    if unknown:
        raise ConfigError(f"{path}: unknown function tag(s) {sorted(unknown)} in transactionGas")
    try:
        return GasSchedule(
            transaction_gas={**base.transaction_gas, **overrides},
            per_requester_update_gas=data.get("perRequesterUpdateGas", base.per_requester_update_gas),
        )
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def build_sim_config(values: dict, schedule: GasSchedule) -> SimConfig:
    """The inverse of engine.settings: a validated SimConfig from flag-keyed values."""
    try:
        scenario = Scenario(values["scenario"])
    except ValueError:
        raise ConfigError(f"scenario must be 1, 2 or 3, got {values['scenario']}") from None
    return SimConfig(
        scenario=scenario,
        action_ticker=values["actions"],
        access_fraction_pct=values["access-fraction"],
        renew_fraction_pct=values["renew-fraction"],
        profit_margin_pct=values["profit-margin"],
        update_multiplier=values["update-multiplier"],
        seed=values["seed"],
        population=PopulationConfig(
            n_accounts=values["accounts"],
            max_providers=values["max-providers"],
            decay=values["decay"],
            provider_prob_max=values["provider-prob-max"],
        ),
        price=PriceModel(gas_price_wei=values["gas-price-gwei"] * GWEI, eth_usd=values["eth-usd"]),
        schedule=schedule,
    )


def _grid_list(text: str) -> list[int]:
    try:
        items = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not items:
        raise argparse.ArgumentTypeError("grid must not be empty")
    if len(set(items)) < len(items):
        raise argparse.ArgumentTypeError(f"grid repeats a value: {text!r}")
    return items


def _add_setting_flags(parser: argparse.ArgumentParser) -> None:
    s = parser.add_argument_group(
        "simulation settings", "each is also a --config key under the same name; see README"
    )
    margins = ", ".join(
        f"{settings(SimConfig(scenario=scenario))['profit-margin']} in scenario {scenario.value}"
        for scenario in Scenario
    )
    for flag, default in _DEFAULTS.items():
        choices = [scenario.value for scenario in Scenario] if flag == "scenario" else None
        s.add_argument(
            f"--{flag}", dest=flag, type=_TYPES[flag], choices=choices, default=argparse.SUPPRESS,
            metavar=None if choices else _TYPES[flag].__name__.upper(),
            help=f"default {margins if default is None else default}",
        )
    g = parser.add_argument_group("inputs and outputs")
    g.add_argument("--config", type=Path, default=None, metavar="FILE",
                   help="key=value settings file, overridden by explicit flags")
    g.add_argument("--gas-table", type=Path, default=None, metavar="FILE",
                   help="JSON overrides for the gas schedule")
    g.add_argument("--out", type=Path, default=None, metavar="DIR",
                   help=f"report directory (default ${OUT_ENV} or ./out)")
    g.add_argument("--quiet", action="store_true", help="suppress the stdout summary")


def _resolve_values(args: argparse.Namespace) -> dict:
    values = dict(_DEFAULTS)
    if args.config is not None:
        values.update(parse_config_file(args.config))
    values.update({k: v for k, v in vars(args).items() if k in _DEFAULTS})
    return values


def _resolve_out(args: argparse.Namespace, layout: dict[str, tuple[str, ...]]) -> Path:
    """Create the report directory before any run. layout maps each directory a command writes ("" for
    the report directory, parents first) to its reports. An unusable report directory exits 2, as does
    anything but a directory at a layout path, or anything but a regular file at a report's."""
    env = os.environ.get(OUT_ENV)
    out = args.out if args.out is not None else Path(env) if env else Path("out")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {out} as the report directory: {exc}") from exc
    for folder, reports in zip(map(out.joinpath, layout), layout.values()):
        if folder.exists() and not folder.is_dir():
            raise ConfigError(f"cannot write reports to {folder}: it is not a directory")
        for path in (folder / report for report in reports) if folder.is_dir() else ():
            if path.exists() and not path.is_file():
                raise ConfigError(f"cannot write a report to {path}: it is not a regular file")
    return out


def _cmd_run(args: argparse.Namespace) -> int:
    schedule = load_gas_table(args.gas_table) if args.gas_table else default_gas_schedule()
    cfg = build_sim_config(_resolve_values(args), schedule)
    name = f"run-{cfg.seed}"
    run_dir = _resolve_out(args, {name: (*REPORT_NAMES, *SHARED_NAMES)}) / name
    result = run_simulation(cfg)
    summary = write_run_reports(result, run_dir)
    write_seed_reports(result, run_dir)
    write_report(run_dir / "registry.csv", result.registry.snapshot_csv())
    if not args.quiet:
        sys.stdout.writelines(summary_text(result, summary))
        sys.stdout.write(f"reports in {run_dir}\n")
    return 0


def _sweep_seed(row: list[SimConfig], names: list[str], out: Path, start: tuple) -> list:
    """Simulate row's seed once, settle and write each of its cells and, after the first one written, the
    population.csv and tokens.csv they share, in seed-S/. Returns, in cell order, each run's RunSummary or
    the error of a failed run, which names it: seed, grid cell, period and action."""
    stream = simulate(row[0])
    outcomes = []
    for cfg, name in zip(row, names):
        try:
            result = settle(cfg, stream, start)
        except EngineError as exc:
            outcomes.append(str(exc))
            continue
        summary = write_run_reports(result, out / name / f"run-{cfg.seed}")
        if all(isinstance(outcome, str) for outcome in outcomes):  # the seed's first written run
            write_seed_reports(result, out / f"seed-{cfg.seed}")
        outcomes.append(summary)
        del result  # freed before the next cell settles, so a worker holds one run at a time
    return outcomes


_inherited: list = []  # in a sweep worker, its sweep's names, out and start


def _worker_seed(row: list[SimConfig]) -> list:
    return _sweep_seed(row, *_inherited)


def _seed_outcomes(grid: list[list], names: list[str], out: Path, start: tuple) -> Iterator[list]:
    """Each seed's outcomes, in seed order. The seeds run in worker processes,
    one per usable CPU and at most one per seed; one worker is this process."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(grid))
    if workers == 1:
        yield from (_sweep_seed(row, names, out, start) for row in grid)
        return
    from concurrent.futures import ProcessPoolExecutor  # not at the top: ~30 ms on every start
    from multiprocessing import get_context
    # Forked before the pool starts a thread, workers inherit names, out and the
    # start: a task pickles only a row. An error cancels seeds not yet started.
    with ProcessPoolExecutor(workers, get_context("fork"), initializer=_inherited.extend,
                             initargs=((names, out, start),)) as pool:
        yield from pool.map(_worker_seed, grid)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ConfigError("--seeds must be at least 1")
    schedule = load_gas_table(args.gas_table) if args.gas_table else default_gas_schedule()
    values = _resolve_values(args)
    scenarios = args.scenarios if args.scenarios else [values["scenario"]]
    fractions = args.access_fractions if args.access_fractions else [values["access-fraction"]]
    if args.margins and len(scenarios) > 1:
        raise ConfigError("--margins needs a single scenario")
    # A margin pinned for one scenario cannot hold across others (1 and 2
    # demand 100, 3 demands more), so cross-scenario sweeps fall back to
    # the per-scenario default.
    margins = args.margins or [values["profit-margin"] if len(scenarios) == 1 else None]
    # Every cell is validated before the first run, so a bad grid exits 2
    # without writing anything.
    cells = [
        build_sim_config(
            {**values, "scenario": scenario, "access-fraction": fraction, "profit-margin": margin},
            schedule,
        )
        for scenario in scenarios
        for fraction in fractions
        for margin in margins
    ]
    names = [f"scenario-{c.scenario.value}_fraction-{c.access_fraction_pct}_margin-{c.resolved_margin_pct}"
             for c in cells]
    seeds = range(values["seed"], values["seed"] + args.seeds)
    grid = [[with_seed(base, seed) for base in cells] for seed in seeds]
    runs = [f"{name}/run-{cfg.seed}" for row in grid for name, cfg in zip(names, row)]
    out = _resolve_out(args, {"": ("registry.csv", "sweep.csv", "break_even.csv"), **dict.fromkeys(names, ()),
                              **dict.fromkeys(runs, REPORT_NAMES), **{f"seed-{s}": SHARED_NAMES[:2] for s in seeds}})

    start = build_start(cells[0])  # the bootstrap every run of the grid forks
    by_cell = [[] for _ in cells]  # each cell's run summaries, in seed order
    # Seed-major, so that each seed is simulated once and every cell settles
    # from its stream; failures are logged in that order too.
    for outcomes in _seed_outcomes(grid, names, out, start):
        for summaries, outcome in zip(by_cell, outcomes):
            if isinstance(outcome, str):
                import logging  # not at the top: only a failed run logs
                logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
                # The name is not __name__, which is __main__ under python -m.
                logging.getLogger("incentiveledger.cli").error("run failed: %s", outcome)
            else:
                summaries.append(outcome)

    if any(by_cell):
        write_report(out / "registry.csv", start[1].snapshot_csv())
        write_report(out / "sweep.csv", sweep_csv(summary for summaries in by_cell for summary in summaries))
    even = list(break_even_csv(zip(cells, by_cell)))  # both written and printed
    write_report(out / "break_even.csv", even)
    if not args.quiet:
        sys.stdout.writelines(even)
        sys.stdout.write(f"reports in {out}\n")
    return 0 if sum(map(len, by_cell)) == len(runs) else 1  # 1 if any run failed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incentiveledger",
        description="Simulate cost-sharing data markets on a mock gas-metered ledger.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="run one simulation and write its reports")
    _add_setting_flags(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = commands.add_parser(
        "sweep", help="run a grid over fractions, margins and a seed range"
    )
    _add_setting_flags(sweep_parser)
    sweep_parser.add_argument("--seeds", type=int, default=30, metavar="N",
                              help="run seeds S..S+N-1 per grid cell, S being --seed (default 30)")
    sweep_parser.add_argument("--scenarios", type=_grid_list, default=None, metavar="LIST",
                              help="comma-separated scenarios, e.g. 2,3 (default: --scenario)")
    sweep_parser.add_argument("--access-fractions", dest="access_fractions", type=_grid_list,
                              default=None, metavar="LIST",
                              help="comma-separated access fractions, e.g. 1,5,10,25")
    sweep_parser.add_argument("--margins", type=_grid_list, default=None, metavar="LIST",
                              help="comma-separated profit margins (single-scenario sweeps)")
    sweep_parser.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    was_enabled = gc.isenabled()
    gc.disable()  # a run's state has no cycles; see the module docstring
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, LedgerError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, ConfigError) else 1
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
