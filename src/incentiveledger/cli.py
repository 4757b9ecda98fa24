"""Command line front end.

Two commands: `run` executes one simulation and writes its report set,
`sweep` executes a grid over fractions, margins and a seed range and adds
aggregate tables on top. Settings resolve in three layers: built-in
defaults, then a key=value config file using the exact flag names, then
explicit flags. The config.txt echoed into every run directory parses
back as a config file and reproduces the run.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import statistics
import sys
from pathlib import Path

from . import __version__
from .agents import PopulationConfig
from .chain import GWEI, GasSchedule, PriceModel, default_gas_schedule
from .dataset import Scenario
from .engine import SimConfig, run_simulation, with_seed
from .errors import BadConfigError, ConfigError, EngineError, LedgerError
from .reporting import summary_csv, summary_text, write_run_reports

OUT_ENV = "INCENTIVELEDGER_OUT"

log = logging.getLogger(__name__)

_BASE = SimConfig()

# Config-file keys are the flag names; flags use the same strings as
# argparse dest, so file values and flag values merge into one dict.
_KEYS: dict[str, tuple] = {
    "scenario": (int, _BASE.scenario.value),
    "actions": (int, _BASE.action_ticker),
    "access-fraction": (int, _BASE.access_fraction_pct),
    "renew-fraction": (int, _BASE.renew_fraction_pct),
    "profit-margin": (int, None),
    "update-multiplier": (int, _BASE.update_multiplier),
    "accounts": (int, _BASE.population.n_accounts),
    "max-providers": (int, _BASE.population.max_providers),
    "decay": (float, _BASE.population.decay),
    "provider-prob-max": (float, _BASE.population.provider_prob_max),
    "gas-price-gwei": (float, _BASE.price.gas_price_wei / GWEI),
    "eth-usd": (float, _BASE.price.eth_usd),
    "seed": (int, _BASE.seed),
}


def parse_config_file(path: Path) -> dict:
    """Flat key=value lines; blank lines and # comments allowed."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        coerce = _KEYS[key][0]
        try:
            values[key] = coerce(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def load_gas_table(path: Path) -> GasSchedule:
    """Override parts of the default gas schedule from a JSON file.

    Shape: {"transactionGas": {tag: gas}, "executionGas": {tag: gas},
    "perRequesterUpdateGas": gas}; every section is optional and unknown
    tags are rejected.
    """
    base = default_gas_schedule()
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read gas table {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    unknown = set(data) - {"transactionGas", "executionGas", "perRequesterUpdateGas"}
    if unknown:
        raise ConfigError(f"{path}: unknown section(s) {sorted(unknown)}")
    txn = dict(base.transaction_gas)
    exe = dict(base.execution_gas)
    for section, table in (("transactionGas", txn), ("executionGas", exe)):
        for tag, gas in data.get(section, {}).items():
            if tag not in table:
                raise ConfigError(f"{path}: unknown function tag {tag!r} in {section}")
            if not isinstance(gas, int) or gas <= 0:
                raise ConfigError(f"{path}: gas for {tag!r} must be a positive integer")
            table[tag] = gas
    per_requester = data.get("perRequesterUpdateGas", base.per_requester_update_gas)
    if not isinstance(per_requester, int) or per_requester < 0:
        raise ConfigError(f"{path}: perRequesterUpdateGas must be a non-negative integer")
    return GasSchedule(transaction_gas=txn, execution_gas=exe, per_requester_update_gas=per_requester)


def build_sim_config(values: dict, schedule: GasSchedule) -> SimConfig:
    try:
        scenario = Scenario(values["scenario"])
    except ValueError:
        raise ConfigError(f"scenario must be 1, 2 or 3, got {values['scenario']}") from None
    population = PopulationConfig(
        n_accounts=values["accounts"],
        decay=values["decay"],
        max_providers=values["max-providers"],
        provider_prob_max=values["provider-prob-max"],
        seed=values["seed"],
    )
    price = PriceModel(
        gas_price_wei=int(round(values["gas-price-gwei"] * GWEI)),
        eth_usd=values["eth-usd"],
    )
    cfg = SimConfig(
        scenario=scenario,
        action_ticker=values["actions"],
        access_fraction_pct=values["access-fraction"],
        renew_fraction_pct=values["renew-fraction"],
        profit_margin_pct=values["profit-margin"],
        update_multiplier=values["update-multiplier"],
        seed=values["seed"],
        population=population,
        price=price,
        schedule=schedule,
    )
    cfg.validate()
    return cfg


def _grid_list(text: str) -> list[int]:
    try:
        items = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not items:
        raise argparse.ArgumentTypeError("grid must not be empty")
    return items


def _add_setting_flags(parser: argparse.ArgumentParser) -> None:
    sup = argparse.SUPPRESS
    s = parser.add_argument_group("simulation settings")
    s.add_argument("--scenario", dest="scenario", type=int, choices=(1, 2, 3), default=sup,
                   help="compensation scenario (default 2)")
    s.add_argument("--seed", dest="seed", type=int, default=sup,
                   help="master random seed (default 0)")
    s.add_argument("--actions", dest="actions", type=int, default=sup,
                   help="stop after this many actions (default 500)")
    s.add_argument("--accounts", dest="accounts", type=int, default=sup,
                   help="number of agent accounts (default 1000)")
    s.add_argument("--access-fraction", dest="access-fraction", type=int, default=sup,
                   metavar="PCT", help="percent of open cost charged on access (default 5)")
    s.add_argument("--renew-fraction", dest="renew-fraction", type=int, default=sup,
                   metavar="PCT", help="percent of open cost charged on renewal (default 5)")
    s.add_argument("--profit-margin", dest="profit-margin", type=int, default=sup,
                   metavar="PCT", help="margin percent >= 100 (default 100; 200 in scenario 3)")
    s.add_argument("--gas-price-gwei", dest="gas-price-gwei", type=float, default=sup,
                   metavar="G", help="gas price in gwei (default 72)")
    s.add_argument("--eth-usd", dest="eth-usd", type=float, default=sup,
                   metavar="X", help="exchange rate for display figures (default 1716.52)")
    s.add_argument("--max-providers", dest="max-providers", type=int, default=sup,
                   metavar="N", help="number of provider agents (default 1)")
    s.add_argument("--provider-prob-max", dest="provider-prob-max", type=float, default=sup,
                   metavar="P", help="provider publish probability upper bound (default 0.05)")
    s.add_argument("--update-multiplier", dest="update-multiplier", type=int, default=sup,
                   metavar="M", help="update probability multiplier (default 5)")
    s.add_argument("--decay", dest="decay", type=float, default=sup,
                   metavar="D", help="per-renewal probability decay factor (default 0.75)")
    g = parser.add_argument_group("inputs and outputs")
    g.add_argument("--config", type=Path, default=None, metavar="FILE",
                   help="key=value settings file, overridden by explicit flags")
    g.add_argument("--gas-table", type=Path, default=None, metavar="FILE",
                   help="JSON overrides for the gas schedule")
    g.add_argument("--out", type=Path, default=None, metavar="DIR",
                   help=f"report directory (default ${OUT_ENV} or ./out)")
    g.add_argument("--quiet", action="store_true", help="suppress the stdout summary")


def _resolve_values(args: argparse.Namespace) -> dict:
    values = {key: default for key, (_, default) in _KEYS.items()}
    if args.config is not None:
        values.update(parse_config_file(args.config))
    values.update({k: v for k, v in vars(args).items() if k in _KEYS})
    return values


def _resolve_out(args: argparse.Namespace) -> Path:
    if args.out is not None:
        return args.out
    env = os.environ.get(OUT_ENV)
    return Path(env) if env else Path("out")


def _cmd_run(args: argparse.Namespace) -> int:
    schedule = load_gas_table(args.gas_table) if args.gas_table else default_gas_schedule()
    cfg = build_sim_config(_resolve_values(args), schedule)
    result = run_simulation(cfg)
    run_dir = _resolve_out(args) / f"run-{cfg.seed}"
    summary = write_run_reports(result, run_dir)
    if not args.quiet:
        sys.stdout.write(summary_text(result, summary))
        sys.stdout.write(f"reports in {run_dir}\n")
    return 0


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
    out = _resolve_out(args)

    failures = 0
    summary_rows: list[str] = []
    header = ""
    even_lines = ["scenario,accessFractionPct,profitMarginPct,runs,attained,medianPeriod"]
    for base in cells:
        scenario, fraction, margin = base.scenario.value, base.access_fraction_pct, base.resolved_margin_pct
        cell = out / f"scenario-{scenario}_fraction-{fraction}_margin-{margin}"
        evens: list[float] = []
        # Each run's reports are written as soon as it finishes and its result
        # is dropped, so memory does not grow with the grid.
        for seed in range(args.seeds):
            cfg = with_seed(base, seed)
            try:
                result = run_simulation(cfg)
            except EngineError as exc:
                failures += 1
                log.error(
                    "run failed (scenario %d, margin %d, access fraction %d, renew fraction %d, seed %d): %s",
                    scenario, margin, fraction, cfg.renew_fraction_pct, cfg.seed, exc,
                )
                continue
            summary = write_run_reports(result, cell / f"run-{cfg.seed}")
            header, _, row = summary_csv(summary).partition("\n")
            summary_rows.append(row.rstrip("\n"))
            evens.append(
                float("inf") if summary.break_even_period is None
                else summary.break_even_period
            )
        attained = sum(1 for e in evens if e != float("inf"))
        median = statistics.median(evens) if evens else float("inf")
        median_text = "" if median == float("inf") else f"{median:g}"
        even_lines.append(f"{scenario},{fraction},{margin},{len(evens)},{attained},{median_text}")

    out.mkdir(parents=True, exist_ok=True)
    if summary_rows:
        (out / "sweep.csv").write_text(header + "\n" + "\n".join(summary_rows) + "\n",
                                       encoding="utf-8", newline="\n")
    (out / "break_even.csv").write_text("\n".join(even_lines) + "\n",
                                        encoding="utf-8", newline="\n")
    if not args.quiet:
        sys.stdout.write("\n".join(even_lines) + "\n")
        sys.stdout.write(f"reports in {out}\n")
    return 1 if failures else 0


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
                              help="run seeds 0..N-1 per grid cell (default 30)")
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
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BadConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except LedgerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
