"""Command line: flag/config resolution, exit codes, report layout."""

from __future__ import annotations

import concurrent.futures
import contextlib
import gc
import hashlib
import io
import json
import logging
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from incentiveledger import cli, engine, reporting
from incentiveledger.agents import PopulationConfig
from incentiveledger.cli import build_sim_config, main, parse_config_file
from incentiveledger.chain import GWEI, default_gas_schedule
from incentiveledger.engine import SimConfig, run_simulation
from incentiveledger.errors import ConfigError, EngineError, ReconciliationFailureError
from incentiveledger.reporting import REPORT_NAMES, SHARED_NAMES, write_run_reports
from incentiveledger.tokens import ACCESS_PERIODS

SMALL = ["--accounts", "30", "--actions", "25"]


def run_cli(*argv) -> int:
    return main(list(argv))


def pin_cpus(monkeypatch, count: int) -> None:
    """Let a sweep see count usable CPUs, and so run count workers at most."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def pools(monkeypatch) -> list[int]:
    """The worker count of each process pool a sweep starts."""
    started = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    return started


def test_run_writes_reports_and_prints_summary(tmp_path, capsys):
    assert run_cli("run", *SMALL, "--seed", "3", "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert f"reports in {tmp_path / 'run-3'}" in out
    assert "25 actions" in out
    names = {p.name for p in (tmp_path / "run-3").iterdir()}
    assert {"actions.csv", "summary.csv", "summary.txt", "config.txt"} <= names


def test_quiet_suppresses_stdout(tmp_path, capsys):
    assert run_cli("run", *SMALL, "--quiet", "--out", str(tmp_path)) == 0
    assert capsys.readouterr().out == ""


def test_same_flags_reproduce_identical_reports(tmp_path):
    run_cli("run", *SMALL, "--seed", "5", "--out", str(tmp_path / "a"), "--quiet")
    run_cli("run", *SMALL, "--seed", "5", "--out", str(tmp_path / "b"), "--quiet")
    for name in ("actions.csv", "summary.csv", "transactions.csv"):
        assert (tmp_path / "a" / "run-5" / name).read_bytes() == \
               (tmp_path / "b" / "run-5" / name).read_bytes()


def test_emitted_config_reproduces_the_run(tmp_path):
    run_cli("run", *SMALL, "--seed", "9", "--scenario", "3",
            "--out", str(tmp_path / "a"), "--quiet")
    config = tmp_path / "a" / "run-9" / "config.txt"
    assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "b"), "--quiet") == 0
    assert (tmp_path / "a" / "run-9" / "actions.csv").read_bytes() == \
           (tmp_path / "b" / "run-9" / "actions.csv").read_bytes()


def test_flags_override_config_file(tmp_path):
    config = tmp_path / "settings.cfg"
    config.write_text("# small smoke run\nactions=25\naccounts=30\nseed=4\n")
    assert run_cli("run", "--config", str(config), "--seed", "8",
                   "--out", str(tmp_path), "--quiet") == 0
    assert (tmp_path / "run-8").is_dir()  # flag seed beat the file's
    summary = (tmp_path / "run-8" / "summary.csv").read_text().splitlines()
    fields = dict(zip(summary[0].split(","), summary[1].split(",")))
    assert fields["actions"] == "25"  # file value survived where no flag given


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    config = tmp_path / "settings.cfg"
    config.write_text("bogus=1\n")
    assert run_cli("run", "--config", str(config)) == 2
    assert "unknown key 'bogus'" in capsys.readouterr().err
    config.write_text("scenario\n")
    assert run_cli("run", "--config", str(config)) == 2
    config.write_text("scenario=two\n")
    assert run_cli("run", "--config", str(config)) == 2
    config.write_bytes(b"seed=\xff\n")  # not UTF-8
    assert run_cli("run", "--config", str(config)) == 2


def test_margin_scenario_conflict_exits_2(tmp_path, capsys):
    code = run_cli("run", *SMALL, "--scenario", "3", "--profit-margin", "90",
                   "--out", str(tmp_path))
    assert code == 2
    assert "profit margin must be an integer in [100, 10000], got 90" in capsys.readouterr().err
    assert run_cli("run", *SMALL, "--scenario", "2", "--profit-margin", "150",
                   "--out", str(tmp_path)) == 2


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--scenario", "5")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli()  # a command is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--scenarios", "")
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert "incentiveledger" in capsys.readouterr().out


README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def readme_section(heading: str) -> str:
    """README's text under heading, up to the next heading of level 2 or 3."""
    return re.split(r"^#{2,3} ", README.split(f"\n{heading}\n", 1)[1], maxsplit=1, flags=re.M)[0]


def test_the_readme_settings_table_lists_every_flag():
    flags = re.findall(r"^\| `--([\w-]+)` \|", readme_section("## Command line"), flags=re.M)
    assert sorted(flags) == sorted(engine.settings(SimConfig()))


def test_the_readme_direct_run_layout_names_every_report():
    block = readme_section("### Report layout").split("```")[1]
    assert sorted(re.findall(r"\b\w+\.(?:csv|txt)\b", block)) == sorted((*REPORT_NAMES, *SHARED_NAMES))


def test_out_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("INCENTIVELEDGER_OUT", str(tmp_path / "from-env"))
    assert run_cli("run", *SMALL, "--quiet") == 0
    assert (tmp_path / "from-env" / "run-0" / "summary.csv").exists()
    # An explicit --out always wins over the environment.
    assert run_cli("run", *SMALL, "--quiet", "--out", str(tmp_path / "flag")) == 0
    assert (tmp_path / "flag" / "run-0" / "summary.csv").exists()


RUN, SWEEP = ["run"], ["sweep", "--seeds", "2"]
CELL = "scenario-2_fraction-5_margin-100"


# A file is the report directory, lies above it, or takes a directory that a
# run would write: the run's own, a sweep cell's, a cell's second seed's, or
# the directory of that seed's shared population.csv. Or a directory takes a
# report file's path: a run's, a sweep run's, a sweep table's, or a shared one.
@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize(("command", "where"), [
    *(pytest.param(command, where, id=f"{command[0]}-{where}")
      for where in ("file", "under-file") for command in (RUN, SWEEP)),
    pytest.param(RUN, "run-0", id="run-run-dir"),
    pytest.param(SWEEP, CELL, id="sweep-cell-dir"),
    pytest.param(SWEEP, f"{CELL}/run-1", id="sweep-cell-run-dir"),
    pytest.param(SWEEP, "seed-1", id="sweep-seed-dir"),
    pytest.param(RUN, "run-0/summary.csv", id="run-report"),
    pytest.param(RUN, "run-0/registry.csv", id="run-shared-report"),
    pytest.param(SWEEP, f"{CELL}/run-1/requester_costs.csv", id="sweep-run-report"),
    pytest.param(SWEEP, "sweep.csv", id="sweep-table"),
    pytest.param(SWEEP, "break_even.csv", id="sweep-break-even"),
    pytest.param(SWEEP, "registry.csv", id="sweep-registry"),
    pytest.param(SWEEP, "seed-1/population.csv", id="sweep-seed-population"),
])
def test_an_out_that_cannot_be_a_directory_exits_2_before_simulating(tmp_path, monkeypatch, capsys,
                                                                      command, where, via):
    def never(*args):
        raise AssertionError("simulated despite an unusable --out")

    monkeypatch.setattr(cli, "run_simulation", never)
    monkeypatch.setattr(cli, "settle", never)
    if where in ("file", "under-file"):
        blocker = tmp_path / "blocker"
        out = named = blocker if where == "file" else blocker / "out"
    else:
        out = tmp_path / "out"
        blocker = named = out / where
        blocker.parent.mkdir(parents=True)
    if where.endswith((".csv", ".txt")):
        blocker.mkdir()
        blocker = blocker / "kept"
    blocker.write_text("not a directory")
    before = sorted(tmp_path.rglob("*"))
    argv = [*command, *SMALL, "--quiet"]
    if via == "flag":
        argv += ["--out", str(out)]
    else:
        monkeypatch.setenv("INCENTIVELEDGER_OUT", str(out))
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(named) in err and "Traceback" not in err
    assert blocker.read_text() == "not a directory"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", [RUN, SWEEP], ids=["run", "sweep"])
def test_the_out_pre_check_covers_exactly_the_files_a_command_writes(tmp_path, monkeypatch, command):
    # _resolve_out guards the report paths of the layout it is handed; the
    # commands compose the paths they write on their own.
    layouts = []
    real = cli._resolve_out

    def resolve_out(args, layout):
        layouts.append(layout)
        return real(args, layout)

    monkeypatch.setattr(cli, "_resolve_out", resolve_out)
    assert run_cli(*command, *SMALL, "--out", str(tmp_path), "--quiet") == 0
    [layout] = layouts
    guarded = {Path(folder, report).as_posix() for folder, reports in layout.items() for report in reports}
    written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
    assert written == guarded


def test_gas_table_overrides_change_fees(tmp_path):
    table = tmp_path / "gas.json"
    table.write_text(json.dumps({"transactionGas": {"updateData": 87_598}}))
    run_cli("run", *SMALL, "--out", str(tmp_path / "base"), "--quiet")
    run_cli("run", *SMALL, "--gas-table", str(table), "--out", str(tmp_path / "bumped"), "--quiet")
    base = (tmp_path / "base" / "run-0" / "actions.csv").read_text()
    bumped = (tmp_path / "bumped" / "run-0" / "actions.csv").read_text()
    assert base != bumped
    # Doubled update gas doubles the update rows' fee column.
    base_fee = next(int(l.split(",")[5]) for l in base.splitlines() if ",update," in l)
    bumped_fee = next(int(l.split(",")[5]) for l in bumped.splitlines() if ",update," in l)
    assert bumped_fee == 2 * base_fee


def test_a_run_imports_no_json_logging_or_statistics(tmp_path):
    # json reads only a --gas-table, logging logs only a failed sweep run, and reporting computes
    # its own quartiles and medians. -S keeps site hooks from importing any of them first.
    table = tmp_path / "gas.json"
    table.write_text(json.dumps({"transactionGas": {"updateData": 87_598}}))
    run = ["run", "--actions", "30", "--accounts", "20", "--quiet", "--out"]
    script = (
        "import sys\n"
        "from incentiveledger import cli\n"
        f"assert cli.main({[*run, str(tmp_path / 'plain')]!r}) == 0\n"
        "print(sorted({'json', 'logging', 'statistics'} & set(sys.modules)))\n"
        f"assert cli.main({[*run, str(tmp_path / 'table'), '--gas-table', str(table)]!r}) == 0\n"
        "print(sorted({'json', 'logging', 'statistics'} & set(sys.modules)))\n"
    )
    src = Path(cli.__file__).parent.parent
    started = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
    assert (started.returncode, started.stderr) == (0, "")
    assert started.stdout.splitlines() == ["[]", "['json']"]
    plain, table = ((tmp_path / name / "run-0" / "actions.csv").read_text() for name in ("plain", "table"))
    assert plain != table  # the table took effect


def test_emitted_config_reproduces_a_gas_table_run_with_the_same_table(tmp_path):
    # Settings have no gas-table key, so config.txt alone runs the default
    # schedule; with the first run's --gas-table it reproduces every byte.
    table = tmp_path / "gas.json"
    table.write_text(json.dumps({"transactionGas": {"updateData": 87_598}}))
    first, again, without = tmp_path / "first", tmp_path / "again", tmp_path / "without"
    run_cli("run", "--actions", "60", "--accounts", "40", "--gas-table", str(table), "--out", str(first), "--quiet")
    config = str(first / "run-0" / "config.txt")
    assert run_cli("run", "--config", config, "--gas-table", str(table), "--out", str(again), "--quiet") == 0
    assert run_cli("run", "--config", config, "--out", str(without), "--quiet") == 0
    assert tree_digest(again) == tree_digest(first) != tree_digest(without)


def test_bad_gas_tables_exit_2(tmp_path, capsys):
    table = tmp_path / "gas.json"
    out = tmp_path / "out"
    for content in (
        json.dumps({"transactionGas": {"mintUnicorn": 5}}),
        json.dumps({"spellingMistake": {}}),
        json.dumps({"transactionGas": {"updateData": -4}}),
        json.dumps({"perRequesterUpdateGas": "lots"}),
        "not json{",
        json.dumps([1, 2]),
        json.dumps({"perRequesterUpdateGas": 0}),
        json.dumps({"transactionGas": {"updateData": True}}),
        json.dumps({"transactionGas": 5}),
        json.dumps({"executionGas": {"updateData": 20_863}}),
        "\udcff",  # not UTF-8
        '{"perRequesterUpdateGas": ' + "9" * 5000 + "}",  # past int()'s digit limit
        "[" * 100_000,
    ):
        table.write_bytes(content.encode("utf-8", "surrogateescape"))
        assert run_cli("run", "--gas-table", str(table), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
    assert run_cli("run", "--gas-table", str(tmp_path / "missing.json")) == 2


@pytest.mark.parametrize("flags", [
    ["--scenario", "3", "--profit-margin", "20000"],
    ["--gas-price-gwei", "0"],
    ["--gas-price-gwei", "1e-12"],
    ["--gas-price-gwei", "nan"],
    ["--gas-price-gwei", "inf"],
    ["--eth-usd", "0"],
    ["--eth-usd", "nan"],
    ["--eth-usd", "inf"],
    ["--eth-usd", "1e307"],
    ["--seed", "-1"],
], ids=" ".join)
def test_bad_settings_exit_2_before_writing(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert run_cli("run", *SMALL, *flags, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_a_gas_price_below_1_wei_is_reported_as_given(tmp_path, capsys):
    assert run_cli("run", *SMALL, "--gas-price-gwei", "1e-12", "--out", str(tmp_path / "out")) == 2
    assert f"got {1e-12 * GWEI!r} wei\n" in capsys.readouterr().err  # not the 0 wei it rounds to


def test_runtime_failure_exits_1(tmp_path, capsys):
    # At twenty thousand gwei a deployment costs more than the prefund.
    code = run_cli("run", *SMALL, "--gas-price-gwei", "20000", "--out", str(tmp_path))
    assert code == 1
    assert "period 0, action 0" in capsys.readouterr().err


def test_unfunded_registry_bootstrap_exits_2_before_simulating(tmp_path, capsys):
    # At 5,000 gwei the authority's 100 ETH pays the registry deployment, one
    # provider and exactly 423 users, so 424 accounts run and 425 do not.
    tight = ["--gas-price-gwei", "5000", "--actions", "5", "--quiet"]
    assert run_cli("run", *tight, "--accounts", "424", "--out", str(tmp_path)) == 0
    assert run_cli("run", *tight, "--accounts", "425", "--out", str(tmp_path / "b")) == 2
    assert "cannot pay the registry bootstrap" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()
    assert run_cli("run", "--accounts", "31000", "--out", str(tmp_path / "c")) == 2
    assert not (tmp_path / "c").exists()


# sha256 of all 13 report files of one renewal-heavy run (2,615 of its 3,000
# actions are renewals). actions.csv, periods.csv and tokens.csv were
# computed before the renew phase moved to a mint-ordered roster; they pin
# the renewal draw order: one roll per eligible token, in token-id order.
# The other ten were computed before accounts became plain strings and
# quotes plain wei; they pin how accounts and payments are formatted.
GOLDEN_RENEWAL_HEAVY = {
    "actions.csv": "83baefc9095099bfdbe1eea8dfbb3817a1aed0dea06420fbd446f940fcb25324",
    "config.txt": "46cd9097a31d9ef0547ccb4117a7292d83fc74e3d5e47441e03a821eb256dd10",
    "contracts.csv": "bfff2644e08df8bebf42e43d4574a663ab5368103a20398d5c8e9543ec0850c4",
    "cost_distribution.csv": "c5303a70429b7418ad8bf7bd82f85fb5f433e0e1db8b74713e4b8db2a9cdce30",
    "periods.csv": "efa02bc2a620698028c4fdb63b0032ca227637cdd802eefc1e30caee1f5323ff",
    "population.csv": "e62b2c50ffcbe76fd952465a995c11f905bd88662b8005a5ddbd853c19d88ac8",
    "registry.csv": "75534430a9f47a696ae8a451ec6a8866ef196346109b542b8640a6afce97ace3",
    "requester_costs.csv": "2a0dffd897c5b3d341c1efbb97e3d2eef02c90ba496a39dba67263f3996f4fde",
    "summary.csv": "d8696fb1b9a4accaf1b01c2d8b011d32a69fb993abd7372bb2c97f9b2750155c",
    "summary.txt": "d50b5c47ed717def91eae16505c325a10304927e5f926d563702aca7dc2a56b1",
    "tokens.csv": "225abbf23f3f6940d36cc97fc8f814d3c67874f764ef2a07fa362dec8bfc3e89",
    "top_requesters.csv": "daa29dd0efac8771516654a0862649d0e4f1cd5a2d0d75aed533ed0bdc2014b3",
    "transactions.csv": "e224f3f7ea4a3d4bcc72cc820050dda379ca69fcc006024512931c7597e4e647",
}


def test_renewal_heavy_run_matches_golden_digests(tmp_path):
    assert run_cli("run", "--actions", "3000", "--accounts", "3000", "--max-providers", "2",
                   "--seed", "0", "--out", str(tmp_path), "--quiet") == 0
    digests = {
        name: hashlib.sha256((tmp_path / "run-0" / name).read_bytes()).hexdigest()
        for name in GOLDEN_RENEWAL_HEAVY
    }
    assert digests == GOLDEN_RENEWAL_HEAVY


# The rebuild's oracle: sha256 of the last profit.csv and cost_overlay.csv
# that each run wrote, at seed 0.
REBUILT_TABLES = {
    "renewal-heavy": (["--actions", "3000", "--accounts", "3000", "--max-providers", "2"],
                      "17930a6a42cb160e2177e5cd503b4309223d7a1f92fef3bd86ae3a9b2a93d8c1",
                      "991d6dcc32059d13b71bd3022bea4841a634ec8c0a46fca934905dd904b839a0"),
    "default": ([],
                "d24f5840f958a7cd72516e893bf2cfe3c4ce6ac6caafbb86ee881f4839334a40",
                "89e8cecbcc52a2a1677a15f5f44a9d865517f1240c0fadd82f4f841b54d23542"),
    "scale-20k": (["--actions", "20000", "--accounts", "20000", "--max-providers", "2", "--gas-price-gwei", "1"],
                  "2360cb774049bc89659556727aa589e67edc4a3a4e6177615489106743d38205",
                  "fcbd0fcabda60c3d37826562046de5f78147550c9f8d35cbfbc4f674e8349255"),
}


def rebuild_profit_and_cost_overlay(run_dir: Path) -> tuple[str, str]:
    """profit.csv and cost_overlay.csv from a run's actions.csv, periods.csv and config.txt, by README's recipe."""
    def rows(name):
        header, *lines = (run_dir / name).read_text().splitlines()
        return [dict(zip(header.split(","), line.split(","))) for line in lines]

    def usd(wei: int) -> str:
        raw = wei / 10**18 * eth_usd
        cents = int(abs(raw) * 100 + 0.5)
        return f"{(cents if raw >= 0 else -cents) / 100:.2f}"

    config = dict(line.split("=", 1) for line in (run_dir / "config.txt").read_text().splitlines())
    eth_usd = float(config["eth-usd"])
    by_period: dict[str, list[dict]] = {}
    for action in rows("actions.csv"):
        by_period.setdefault(action["period"], []).append(action)
    profit = ["period,scenario,profitWei,profitUsd"]
    overlay = ["rowType,period,kind,dataset,usdTotal,currentCostWei,currentCostUsd"]
    for s in rows("periods.csv"):
        profit.append(f"{s['period']},{config['scenario']},{s['profitWei']},{s['profitUsd']}")
        overlay += (f"action,{a['period']},{a['kind']},{a['dataset']},{a['usdTotal']},"
                    f"{a['currentCostAfterWei']},{usd(int(a['currentCostAfterWei']))}"
                    for a in by_period.get(s["period"], ()))
        overlay.append(f"cost,{s['period']},,,,{s['currentCostWei']},{s['currentCostUsd']}")
    return "".join(f"{line}\n" for line in profit), "".join(f"{line}\n" for line in overlay)


@pytest.mark.parametrize("case", REBUILT_TABLES)
def test_profit_and_cost_overlay_rebuild_from_the_written_reports(tmp_path, monkeypatch, case):
    argv, profit_digest, overlay_digest = REBUILT_TABLES[case]
    results = []
    real = cli.write_run_reports

    def write_run_reports(result, out_dir):
        results.append(result)
        return real(result, out_dir)

    monkeypatch.setattr(cli, "write_run_reports", write_run_reports)
    assert run_cli("run", *argv, "--seed", "0", "--out", str(tmp_path), "--quiet") == 0
    run_dir = tmp_path / "run-0"
    assert not (run_dir / "profit.csv").exists() and not (run_dir / "cost_overlay.csv").exists()
    profit, overlay = rebuild_profit_and_cost_overlay(run_dir)
    assert hashlib.sha256(profit.encode()).hexdigest() == profit_digest
    assert hashlib.sha256(overlay.encode()).hexdigest() == overlay_digest
    [result] = results
    assert profit == "".join(reporting.profit_series_csv(result))
    assert overlay == "".join(reporting.cost_overlay_csv(result))


def test_sweep_lays_out_grid_cells(tmp_path, capsys):
    code = run_cli(
        "sweep", *SMALL, "--seeds", "2", "--scenarios", "2,3",
        "--access-fractions", "5", "--out", str(tmp_path), "--quiet",
    )
    assert code == 0
    cells = ["scenario-2_fraction-5_margin-100", "scenario-3_fraction-5_margin-200"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "break_even.csv", "registry.csv", *cells, "seed-0", "seed-1", "sweep.csv"]
    for cell in cells:
        for run in ("run-0", "run-1"):
            assert sorted(p.name for p in (tmp_path / cell / run).iterdir()) == sorted(REPORT_NAMES)
    for seed in ("seed-0", "seed-1"):
        assert [p.name for p in (tmp_path / seed).iterdir()] == ["population.csv"]
    sweep_rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(sweep_rows) == 1 + 4
    even = (tmp_path / "break_even.csv").read_text().splitlines()
    assert even[0] == "scenario,accessFractionPct,profitMarginPct,runs,attained,medianPeriod"
    assert len(even) == 3
    assert even[1].startswith("2,5,100,2,") and even[2].startswith("3,5,200,2,")


def test_sweep_margins_grid_within_one_scenario(tmp_path):
    code = run_cli(
        "sweep", *SMALL, "--seeds", "1", "--scenario", "3",
        "--margins", "150,200", "--out", str(tmp_path), "--quiet",
    )
    assert code == 0
    assert (tmp_path / "scenario-3_fraction-5_margin-150" / "run-0").is_dir()
    assert (tmp_path / "scenario-3_fraction-5_margin-200" / "run-0").is_dir()


def test_sweep_parameter_validation(tmp_path, capsys):
    # Each exits 2 before any run writes: no seeds, --margins across
    # scenarios, and a grid whose second cell (margin 100 in scenario 3) is
    # invalid.
    out = tmp_path / "out"
    for bad, message in (
        (["--seeds", "0"], "--seeds"),
        (["--scenarios", "2,3", "--margins", "150,200"], "--margins"),
        (["--scenario", "3", "--margins", "150,100"], "profit margin"),
    ):
        assert run_cli("sweep", *SMALL, *bad, "--out", str(out), "--quiet") == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_sweep_rejects_repeated_grid_values(tmp_path, capsys):
    # A repeated value would run its cell twice into the same directories
    # and repeat its sweep.csv and break_even.csv rows.
    out = tmp_path / "out"
    for grid in (["--scenarios", "2,3,2"], ["--access-fractions", "5,5"],
                 ["--scenario", "3", "--margins", "150,200,150"]):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", *SMALL, "--seeds", "2", *grid, "--out", str(out), "--quiet")
        assert exc.value.code == 2
        assert "repeats a value" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_rejects_a_grid_that_is_not_integers(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", *SMALL, "--access-fractions", "1,x", "--out", str(out))
    assert exc.value.code == 2
    assert "--access-fractions: expected comma-separated integers, got '1,x'" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_prints_break_even_then_where_its_reports_are(tmp_path, capsys):
    assert run_cli("sweep", *SMALL, "--seeds", "2", "--scenarios", "2,3", "--out", str(tmp_path)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == (tmp_path / "break_even.csv").read_text(encoding="utf-8").splitlines()
    assert lines[-1] == f"reports in {tmp_path}"
    assert len(lines) == 4  # header, one row per cell, then the location


def sweep_run_reports(run_dir: Path) -> dict[str, bytes]:
    """A sweep run's reports as a direct run of it writes them: the run directory's own,
    its seed's population.csv and the sweep's registry.csv."""
    sweep = run_dir.parent.parent
    reports = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    assert sorted(reports) == sorted(REPORT_NAMES)
    reports["population.csv"] = (sweep / f"seed-{run_dir.name.removeprefix('run-')}" / "population.csv").read_bytes()
    reports["registry.csv"] = (sweep / "registry.csv").read_bytes()
    return reports


def direct_run_reports(run_dir: Path) -> dict[str, bytes]:
    reports = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    assert sorted(reports) == sorted((*REPORT_NAMES, *SHARED_NAMES))
    return reports


@pytest.mark.parametrize("providers", [[], ["--max-providers", "2"]])
def test_every_sweep_run_matches_a_direct_run(tmp_path, providers):
    # Sweep runs share their bootstrap, and each seed's settled cells share
    # its trace; every run directory, with the shared reports, must still
    # equal a direct run of its settings.
    sweep = tmp_path / "sweep"
    assert run_cli("sweep", *SMALL, *providers, "--scenarios", "1,2,3", "--access-fractions", "1,10",
                   "--seeds", "3", "--out", str(sweep), "--quiet") == 0
    runs = sorted(p for p in sweep.glob("*/run-*") if p.is_dir())
    assert len(runs) == 3 * 2 * 3
    for run_dir in runs:
        scenario, fraction, _ = re.findall(r"\d+", run_dir.parent.name)
        seed = run_dir.name.removeprefix("run-")
        direct = tmp_path / "direct" / run_dir.parent.name
        assert run_cli("run", *SMALL, *providers, "--scenario", scenario, "--access-fraction", fraction,
                       "--seed", seed, "--out", str(direct), "--quiet") == 0
        reports, expected = sweep_run_reports(run_dir), direct_run_reports(direct / run_dir.name)
        for name in expected:
            assert reports[name] == expected[name], (run_dir, name)


def test_population_csv_is_formatted_once_per_simulated_seed(tmp_path, monkeypatch):
    # A seed's settled cells share its trace's population, and the sweep
    # writes its population.csv once; a direct run formats its own.
    calls = []
    real = reporting.population_csv
    monkeypatch.setattr(reporting, "population_csv", lambda profiles: calls.append(1) or real(profiles))
    pin_cpus(monkeypatch, 1)  # the calls are counted in this process, so the sweep runs in it
    sweep = tmp_path / "sweep"
    assert run_cli("sweep", *SMALL, "--seeds", "2", "--scenarios", "1,2,3",
                   "--out", str(sweep), "--quiet") == 0
    assert len(calls) == 2
    for seed in ("0", "1"):
        calls.clear()
        assert run_cli("run", *SMALL, "--seed", seed, "--out", str(tmp_path / "direct"), "--quiet") == 0
        assert len(calls) == 1
        direct = (tmp_path / "direct" / f"run-{seed}" / "population.csv").read_bytes()
        copies = [p for p in sweep.rglob("population.csv") if p.parent.name.endswith(f"-{seed}")]
        assert copies == [sweep / f"seed-{seed}" / "population.csv"]
        assert copies[0].read_bytes() == direct


def test_sweep_profit_margin_falls_back_to_defaults_across_scenarios(tmp_path):
    code = run_cli("sweep", *SMALL, "--seeds", "1", "--scenarios", "2,3",
                   "--profit-margin", "150", "--out", str(tmp_path), "--quiet")
    assert code == 0
    assert (tmp_path / "scenario-2_fraction-5_margin-100" / "run-0").is_dir()
    assert (tmp_path / "scenario-3_fraction-5_margin-200" / "run-0").is_dir()


def _fail_seed_1(monkeypatch):
    real = cli.settle

    def settle(cfg, stream, shared=None):
        if cfg.seed == 1:
            raise EngineError(f"seed 1, scenario {cfg.scenario.value}, period 2, action 5: injected")
        return real(cfg, stream, shared)

    monkeypatch.setattr(cli, "settle", settle)


def test_sweep_isolates_a_failed_seed(tmp_path, monkeypatch):
    _fail_seed_1(monkeypatch)
    code = run_cli("sweep", *SMALL, "--seeds", "3", "--out", str(tmp_path), "--quiet")
    assert code == 1
    cell = tmp_path / "scenario-2_fraction-5_margin-100"
    assert sorted(p.name for p in cell.iterdir()) == ["run-0", "run-2"]
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    seeds = [dict(zip(rows[0].split(","), row.split(",")))["seed"] for row in rows[1:]]
    assert seeds == ["0", "2"]
    even = (tmp_path / "break_even.csv").read_text().splitlines()
    assert even[1].startswith("2,5,100,2,")


def test_shared_reports_are_written_for_written_runs_only(tmp_path, monkeypatch):
    # Every cell of seed 1 fails, so it gets no seed-1; a sweep whose every
    # run fails writes no registry.csv either.
    _fail_seed_1(monkeypatch)
    out = tmp_path / "seed-1-failed"
    assert run_cli("sweep", *SMALL, "--scenarios", "2,3", "--seeds", "3", "--out", str(out), "--quiet") == 1
    assert sorted(p.name for p in out.iterdir()) == [
        "break_even.csv", "registry.csv", "scenario-2_fraction-5_margin-100", "scenario-3_fraction-5_margin-200",
        "seed-0", "seed-2", "sweep.csv"]
    out = tmp_path / "all-failed"
    assert run_cli("sweep", *SMALL, "--seeds", "3", "--gas-price-gwei", "20000", "--out", str(out), "--quiet") == 1
    assert sorted(p.name for p in out.iterdir()) == ["break_even.csv"]


def test_a_failed_run_logs_the_same_line_however_the_program_starts(tmp_path, caplog):
    # At twenty thousand gwei the provider cannot pay for its deployment.
    argv = ["sweep", *SMALL, "--seeds", "2", "--gas-price-gwei", "20000", "--quiet"]
    src = Path(cli.__file__).parent.parent
    started = subprocess.run([sys.executable, "-m", "incentiveledger.cli", *argv, "--out", str(tmp_path / "m")],
                             capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert started.returncode == 1
    with caplog.at_level(logging.ERROR, logger="incentiveledger.cli"):
        assert run_cli(*argv, "--out", str(tmp_path / "main")) == 1
    lines = [f"{entry.levelname} {entry.name}: {entry.getMessage()}\n" for entry in caplog.records]
    assert len(lines) == 2 and lines[0].startswith("ERROR incentiveledger.cli: run failed: seed 0, ")
    assert started.stderr.splitlines(keepends=True) == lines


def test_run_failure_names_its_seed_and_scenario(tmp_path, capsys):
    # At twenty thousand gwei the provider cannot pay for its deployment.
    assert run_cli("run", *SMALL, "--seed", "4", "--scenario", "3", "--gas-price-gwei", "20000",
                   "--out", str(tmp_path), "--quiet") == 1
    assert capsys.readouterr().err == (
        "error: seed 4, scenario 3, margin 200, access fraction 5, renew fraction 5, "
        "period 0, action 0: acct-0000 cannot afford deployment and publication\n"
    )


def test_sweep_logs_the_grid_cell_of_a_failed_run(tmp_path, caplog):
    # At twenty thousand gwei the provider cannot pay for its deployment.
    with caplog.at_level(logging.ERROR, logger="incentiveledger.cli"):
        code = run_cli("sweep", *SMALL, "--seeds", "1", "--scenario", "3", "--margins", "150",
                       "--access-fraction", "10", "--renew-fraction", "7",
                       "--gas-price-gwei", "20000", "--out", str(tmp_path), "--quiet")
    assert code == 1
    [entry] = caplog.records
    assert entry.levelno == logging.ERROR
    message = entry.getMessage()
    for part in ("scenario 3", "margin 150", "access fraction 10", "renew fraction 7", "seed 0",
                 "period 0, action 0"):
        assert part in message
    assert not (tmp_path / "scenario-3_fraction-10_margin-150").exists()


def test_a_stalled_stream_fails_every_cell_of_its_seed(tmp_path, monkeypatch, caplog):
    # The seed's stream stops short of the ticker, so each cell settled from
    # it fails with the stall, named by the cell's own scenario and margin.
    monkeypatch.setattr(engine, "MAX_PERIODS", 2)
    with caplog.at_level(logging.ERROR, logger="incentiveledger.cli"):
        code = run_cli("sweep", *SMALL, "--scenarios", "2,3", "--seeds", "1", "--out", str(tmp_path), "--quiet")
    assert code == 1
    messages = [entry.getMessage() for entry in caplog.records]
    assert len(messages) == 2
    for message, (scenario, margin) in zip(messages, ((2, 100), (3, 200))):
        assert re.fullmatch(
            rf"run failed: seed 0, scenario {scenario}, margin {margin}, access fraction 5, renew fraction 5, "
            r"period 2, action \d+: no progress after 2 periods",
            message,
        ), message
    assert sorted(p.name for p in tmp_path.iterdir()) == ["break_even.csv"]


def test_sweep_tree_is_the_same_at_one_and_two_workers(tmp_path, monkeypatch, pools):
    # The sweep of test_sweep_tree_matches_golden_digest, in this process and in two workers.
    digests = []
    for cpus in (1, 2):
        pin_cpus(monkeypatch, cpus)
        assert run_cli("sweep", *SMALL, "--scenarios", "2,3", "--access-fractions", "1,10", "--seeds", "3",
                       "--out", str(tmp_path / str(cpus)), "--quiet") == 0
        digests.append(tree_digest(tmp_path / str(cpus)))
    assert pools == [2]
    assert digests == ["368a29bcc8fc77b89c07ba52be2951d49e7a4cf18913d8ef958cb094e50ed358"] * 2


# The failing sweeps of the three tests above, run at three seeds so that two
# workers have seeds to share.
FAILING_SWEEPS = {
    "isolated seed": (_fail_seed_1, [*SMALL, "--scenarios", "2,3"]),
    "grid cell": (lambda monkeypatch: None,
                  [*SMALL, "--scenario", "3", "--margins", "150", "--access-fraction", "10",
                   "--renew-fraction", "7", "--gas-price-gwei", "20000"]),
    "stalled stream": (lambda monkeypatch: monkeypatch.setattr(engine, "MAX_PERIODS", 2),
                       [*SMALL, "--scenarios", "2,3"]),
}


@pytest.mark.parametrize("case", FAILING_SWEEPS)
def test_failed_runs_are_logged_alike_at_one_and_two_workers(tmp_path, monkeypatch, caplog, pools, case):
    # Failures are logged by the parent, seed-major, whichever worker ran the seed.
    patch, argv = FAILING_SWEEPS[case]
    patch(monkeypatch)
    seen = []
    for cpus in (1, 2):
        pin_cpus(monkeypatch, cpus)
        caplog.clear()
        with caplog.at_level(logging.ERROR, logger="incentiveledger.cli"):
            code = run_cli("sweep", *argv, "--seeds", "3", "--out", str(tmp_path / str(cpus)), "--quiet")
        seen.append((code, [entry.getMessage() for entry in caplog.records], tree_digest(tmp_path / str(cpus))))
    assert pools == [2]
    assert seen[0] == seen[1]
    code, lines, _ = seen[0]
    assert code == 1
    seeds = [int(re.search(r"seed (\d+)", line).group(1)) for line in lines]
    assert seeds == sorted(seeds) and len(lines) >= 2, lines


def _raise_in_write(monkeypatch):
    # Seed 0's reports fail to reconcile; every other seed's writing takes
    # 50 ms, so the parent sees the error before the workers reach the last seeds.
    real = cli.write_run_reports

    def write_run_reports(result, out_dir):
        if result.config.seed == 0:
            raise ReconciliationFailureError("injected")
        time.sleep(0.05)
        return real(result, out_dir)

    monkeypatch.setattr(cli, "write_run_reports", write_run_reports)


@pytest.mark.parametrize("code, patch", [
    (0, lambda monkeypatch: None),
    (1, _fail_seed_1),
    (1, _raise_in_write),
], ids=["success", "engine error", "reconciliation error"])
def test_no_worker_outlives_a_sweep(tmp_path, monkeypatch, capsys, pools, code, patch):
    patch(monkeypatch)
    pin_cpus(monkeypatch, 2)
    assert run_cli("sweep", *SMALL, "--seeds", "20", "--out", str(tmp_path), "--quiet") == code
    assert pools == [2]
    assert multiprocessing.active_children() == []
    written = list(tmp_path.glob("*/run-*"))
    if patch is _raise_in_write:
        # One error line, and the seeds not yet started were cancelled.
        assert capsys.readouterr().err == "error: injected\n"
        assert len(written) < 10, sorted(p.name for p in written)
    else:
        assert len(written) == 20 - code


def test_a_cell_whose_every_run_failed_has_no_median(tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "MAX_PERIODS", 2)
    assert run_cli("sweep", *SMALL, "--scenarios", "2,3", "--seeds", "1", "--out", str(tmp_path), "--quiet") == 1
    assert (tmp_path / "break_even.csv").read_bytes() == (
        b"scenario,accessFractionPct,profitMarginPct,runs,attained,medianPeriod\n2,5,100,0,0,\n3,5,200,0,0,\n"
    )


PAYMENT_FAILURE = ["--accounts", "40", "--actions", "60", "--scenario", "3", "--gas-price-gwei", "1000"]


@pytest.mark.parametrize("margins", ["150,10000", "10000,150"])
def test_a_settled_cell_fails_as_a_direct_run_does(tmp_path, caplog, margins):
    # At margin 10000 the first requester cannot pay. Each seed is simulated
    # once and both cells settle from its stream, whichever margin comes
    # first. Either way the sweep logs what a direct run of each failing cell says.
    with caplog.at_level(logging.ERROR, logger="incentiveledger.cli"):
        code = run_cli("sweep", *PAYMENT_FAILURE, "--seeds", "2", "--access-fractions", "100", "--margins", margins,
                       "--out", str(tmp_path / "sweep"), "--quiet")
    assert code == 1
    needs = "acct-0001 holds 100000000000000000000 wei, needs 693185367000000000000 for addDataRequester"
    assert [entry.getMessage() for entry in caplog.records] == [
        f"run failed: seed {seed}, scenario 3, margin 10000, access fraction 100, renew fraction 5, "
        f"period {period}, action 1: {needs}"
        for seed, period in ((0, 5), (1, 0))
    ]
    cell = tmp_path / "sweep" / "scenario-3_fraction-100_margin-150"
    assert sorted(p.name for p in cell.iterdir()) == ["run-0", "run-1"]
    for seed in (0, 1):
        direct = tmp_path / "direct"
        assert run_cli("run", *PAYMENT_FAILURE, "--access-fraction", "100", "--profit-margin", "150",
                       "--seed", str(seed), "--out", str(direct), "--quiet") == 0
        assert sweep_run_reports(cell / f"run-{seed}") == direct_run_reports(direct / f"run-{seed}")
    assert not (tmp_path / "sweep" / "scenario-3_fraction-100_margin-10000").exists()


def test_sweep_seed_is_the_base_seed(tmp_path):
    assert run_cli("sweep", *SMALL, "--seeds", "2", "--seed", "5", "--scenarios", "2,3",
                   "--out", str(tmp_path / "sweep"), "--quiet") == 0
    for cell in ("scenario-2_fraction-5_margin-100", "scenario-3_fraction-5_margin-200"):
        scenario = cell[9]
        assert sorted(p.name for p in (tmp_path / "sweep" / cell).iterdir()) == ["run-5", "run-6"]
        for seed in ("5", "6"):
            direct = tmp_path / "direct" / cell
            assert run_cli("run", *SMALL, "--scenario", scenario, "--seed", seed,
                           "--out", str(direct), "--quiet") == 0
            assert sweep_run_reports(tmp_path / "sweep" / cell / f"run-{seed}") == direct_run_reports(
                direct / f"run-{seed}")


def test_a_seed_offset_reaches_settled_cells(tmp_path, monkeypatch):
    # A benchmark harness shifts a sweep's seeds by rebinding with_seed in
    # cli and engine; settled cells must take their seed from it too.
    real = cli.with_seed
    monkeypatch.setattr(cli, "with_seed", lambda cfg, seed: real(cfg, seed + 100))
    assert run_cli("sweep", *SMALL, "--seeds", "2", "--scenarios", "2,3",
                   "--out", str(tmp_path), "--quiet") == 0
    runs = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.glob("*/run-*"))
    assert runs == [f"scenario-{s}_fraction-5_margin-{m}/run-{seed}"
                    for s, m in ((2, 100), (3, 200)) for seed in (100, 101)]
    for summary in tmp_path.glob("*/run-*/summary.csv"):
        header, row = summary.read_text().splitlines()
        assert f"run-{dict(zip(header.split(','), row.split(',')))['seed']}" == summary.parent.name


def test_reports_of_one_run_agree_with_each_other(tmp_path):
    # Two providers, so that provider rows and kinds have more than one owner.
    assert run_cli("run", "--accounts", "60", "--actions", "200", "--max-providers", "2", "--seed", "5",
                   "--out", str(tmp_path), "--quiet") == 0

    def rows(name):
        header, *lines = (tmp_path / "run-5" / name).read_text().splitlines()
        return [dict(zip(header.split(","), line.split(","))) for line in lines]

    [summary] = rows("summary.csv")
    counts = {kind: int(summary[field]) for kind, field in
              (("publish", "publishes"), ("update", "updates"), ("request", "requests"), ("renew", "renewals"))}
    costs = rows("requester_costs.csv")
    for kind in ("request", "renew"):
        assert sum(int(row["actions"]) for row in costs if row["kind"] == kind) == counts[kind]
    assert {row["kind"]: int(row["count"]) for row in rows("cost_distribution.csv")} == {
        kind: n for kind, n in counts.items() if n
    }
    spend: dict[str, list[int]] = {}
    for row in costs:
        totals = spend.setdefault(row["address"], [0, 0])
        totals[0] += int(row["actions"])
        totals[1] += int(row["gasFeeWei"]) + int(row["paymentWei"])
    top = rows("top_requesters.csv")
    ranked = sorted(spend.items(), key=lambda item: (-item[1][1], item[0]))[:3]
    assert [(row["address"], [int(row["actions"]), int(row["totalWei"])]) for row in top
            if row["role"] == "requester"] == ranked
    providers = [row for row in top if row["role"] == "provider"]
    assert len(providers) == 2
    assert sum(int(row["actions"]) for row in providers) == counts["publish"] + counts["update"]


def test_reports_follow_the_renewal_rule(tmp_path):
    # The rule has no code of its own: a requester requests once, and the
    # expiry of their one token is their cool-down. Read it off the reports.
    assert run_cli("run", "--accounts", "300", "--actions", "1000", "--max-providers", "20", "--seed", "4",
                   "--out", str(tmp_path), "--quiet") == 0

    def rows(name):
        header, *lines = (tmp_path / "run-4" / name).read_text().splitlines()
        return [dict(zip(header.split(","), line.split(","))) for line in lines]

    actions = rows("actions.csv")
    requests = [row["actor"] for row in actions if row["kind"] == "request"]
    assert len(set(requests)) == len(requests)
    last_action: dict[str, int] = {}
    renewals = 0
    for row in actions:
        if row["kind"] == "renew":
            renewals += 1
            assert int(row["period"]) - last_action[row["actor"]] >= ACCESS_PERIODS
        last_action[row["actor"]] = int(row["period"])
    users = [row["user"] for row in rows("tokens.csv")]
    assert len(set(users)) == len(users) == len(requests)
    assert len({row["dataset"] for row in actions}) > 1 and renewals > len(requests)


def tree_digest(root) -> str:
    """sha256 over every file's relative path and bytes, in sorted path order."""
    h = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()):
        h.update(rel.encode() + b"\0" + (root / rel).read_bytes() + b"\0")
    return h.hexdigest()


def test_sweep_tree_matches_golden_digest(tmp_path):
    # The 182 files of the sweep that collected each cell's results before
    # writing them, with the copies of registry.csv and of each seed's
    # population.csv collapsed into one: 162 files, and 138 without each run's
    # profit.csv and cost_overlay.csv.
    assert run_cli("sweep", *SMALL, "--scenarios", "2,3", "--access-fractions", "1,10",
                   "--seeds", "3", "--out", str(tmp_path), "--quiet") == 0
    assert tree_digest(tmp_path) == "368a29bcc8fc77b89c07ba52be2951d49e7a4cf18913d8ef958cb094e50ed358"


# The byte oracle: each tree below is pinned by the digest of its whole --out
# directory, so any report byte that changes fails one of these tests.

def test_paper_grid_tree_matches_golden_digest(tmp_path):
    assert run_cli("sweep", "--scenarios", "2,3", "--access-fractions", "1,5,10,25", "--seeds", "30",
                   "--out", str(tmp_path), "--quiet") == 0
    assert sum(1 for p in tmp_path.rglob("*") if p.is_file()) == 2673
    assert tree_digest(tmp_path) == "143cab99b66718c30f12f0af775cc375a1e5e680f999a3adc7ce8cbd6037e40c"


def test_three_scenario_sweep_tree_matches_golden_digest(tmp_path):
    assert run_cli("sweep", "--scenarios", "1,2,3", "--access-fractions", "1,25", "--seeds", "4",
                   "--max-providers", "2", "--out", str(tmp_path), "--quiet") == 0
    assert sum(1 for p in tmp_path.rglob("*") if p.is_file()) == 271
    assert tree_digest(tmp_path) == "6246a07e53c318db3d99e5be2fd40ebd932a7a1370f2b2af809dcbd7cdebfd26"


DEFAULT_RUN_STDOUT = """\
seed 0, scenario 2, margin 100%, fractions 5%/5%
500 actions over 173 periods: 1 publish, 51 update, 57 request, 391 renew
per-period frequencies: publish 0.01, update 0.29, request 0.33, renew 2.26
1 dataset(s), 57 distinct requesters, 57 live tokens at end
provider cost $2530.08, earnings $2460.49, profit $-69.60
open compensation pool $69.60
break even: never
top requesters: acct-0003 $322.71, acct-0002 $268.94, acct-0005 $257.92
gas fees $13782.36 (8029243944000000000 wei to the miner)
reports in OUT
"""


def test_default_run_tree_and_stdout_match_golden(tmp_path, capsys):
    assert run_cli("run", "--out", str(tmp_path)) == 0
    assert capsys.readouterr().out.replace(str(tmp_path / "run-0"), "OUT") == DEFAULT_RUN_STDOUT
    assert len(list((tmp_path / "run-0").iterdir())) == 13
    assert tree_digest(tmp_path) == "51d873b02d281dcf8a5adc928e52a7163304b49c3ffe23d526c5564d13d86eb8"


def test_scale_20k_tree_matches_golden_digest(tmp_path):
    assert run_cli("run", "--actions", "20000", "--accounts", "20000", "--max-providers", "2",
                   "--gas-price-gwei", "1", "--out", str(tmp_path), "--quiet") == 0
    assert tree_digest(tmp_path) == "4dbf2df4a6172029f6a8de9f83d5239cd9f516bf48b53a2b049895a2e1de1008"


def test_update_heavy_tree_matches_golden_digest(tmp_path):
    assert run_cli("run", "--actions", "20000", "--accounts", "20000", "--max-providers", "20",
                   "--provider-prob-max", "0.5", "--out", str(tmp_path), "--quiet") == 0
    assert tree_digest(tmp_path) == "9cba87b6f07c7cbe27e8770d5492251045ef3638b51b29b2fcca21c378653f1a"


def test_scale_20k_seed_1_tree_matches_golden_digest(tmp_path):
    assert run_cli("run", "--actions", "20000", "--accounts", "20000", "--max-providers", "2",
                   "--gas-price-gwei", "1", "--seed", "1", "--out", str(tmp_path), "--quiet") == 0
    assert tree_digest(tmp_path) == "c324f051971a4fcf0568b82a41a5f12303352842f58980225ac10a2b091ac5ab"


def test_update_heavy_seed_1_tree_matches_golden_digest(tmp_path):
    assert run_cli("run", "--actions", "20000", "--accounts", "20000", "--max-providers", "20",
                   "--provider-prob-max", "0.5", "--seed", "1", "--out", str(tmp_path), "--quiet") == 0
    assert tree_digest(tmp_path) == "f64b2211bea424b90623070f513e3cb8920a21d334cf6efaf3f0fc6f35d32563"


def test_build_sim_config_round_trips_parse(tmp_path):
    config = tmp_path / "settings.cfg"
    config.write_text(
        "scenario=3\nactions=40\naccess-fraction=10\nrenew-fraction=7\n"
        "profit-margin=250\nupdate-multiplier=2\naccounts=50\nmax-providers=2\n"
        "decay=0.5\nprovider-prob-max=0.04\ngas-price-gwei=60\neth-usd=2000.0\nseed=12\n"
    )
    values = parse_config_file(config)
    defaults = {k: v for k, v in {
        "scenario": 2, "actions": 500, "access-fraction": 5, "renew-fraction": 5,
        "profit-margin": None, "update-multiplier": 5, "accounts": 1000,
        "max-providers": 1, "decay": 0.75, "provider-prob-max": 0.05,
        "gas-price-gwei": 72.0, "eth-usd": 1716.52, "seed": 0,
    }.items() if k not in values}
    cfg = build_sim_config({**defaults, **values}, default_gas_schedule())
    assert cfg.scenario.value == 3 and cfg.action_ticker == 40
    assert cfg.access_fraction_pct == 10 and cfg.renew_fraction_pct == 7
    assert cfg.profit_margin_pct == 250 and cfg.update_multiplier == 2
    assert cfg.population.n_accounts == 50 and cfg.population.max_providers == 2
    assert cfg.population.decay == 0.5 and cfg.population.provider_prob_max == 0.04
    assert cfg.price.gas_price_wei == 60 * 10**9 and cfg.price.eth_usd == 2000.0
    assert cfg.seed == 12
    with pytest.raises(ConfigError, match="scenario must be"):
        build_sim_config({**defaults, **values, "scenario": 7}, default_gas_schedule())


REPORT_FILES = {
    "actions.csv", "periods.csv", "contracts.csv", "requester_costs.csv", "top_requesters.csv",
    "cost_distribution.csv", "transactions.csv", "tokens.csv", "population.csv", "registry.csv",
    "summary.txt", "summary.csv", "config.txt",
}


def _edge_floats(*extra: float) -> st.SearchStrategy:
    return st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf, *extra])


_GAS = st.integers(-1, 100_000) | st.sampled_from([True, 1.5])

# Small and boundary values of every setting; unset ones keep their
# defaults, apart from accounts and actions, which stay small.
_SETTINGS = st.fixed_dictionaries(
    {"accounts": st.integers(-1, 60), "actions": st.integers(-1, 60)},
    optional={
        "scenario": st.sampled_from([1, 2, 3]),
        "seed": st.integers(-2, 3),
        "access-fraction": st.integers(-1, 101),
        "renew-fraction": st.integers(-1, 101),
        "profit-margin": st.sampled_from([-1, 0, 99, 100, 101, 200, 10_000, 10_001, 20_000]),
        "update-multiplier": st.integers(-1, 6),
        "max-providers": st.integers(-1, 4),
        "decay": _edge_floats(1.0) | st.floats(0.0, 1.0),
        "provider-prob-max": _edge_floats(0.01, 1.0) | st.floats(0.0, 1.0),
        "gas-price-gwei": _edge_floats(1e-12, 20_000.0, 1e300) | st.floats(1e-9, 200.0),
        "eth-usd": _edge_floats(1e307, 5e-324) | st.floats(1e-6, 1e4),
    },
)
_GAS_TABLES = st.none() | st.fixed_dictionaries({}, optional={
    "transactionGas": st.dictionaries(st.sampled_from(["updateData", "deployment"]), _GAS),
    "perRequesterUpdateGas": _GAS,
})


@settings(max_examples=200, deadline=None)
@given(values=_SETTINGS, gas_table=_GAS_TABLES)
@example(values={"accounts": 30, "actions": 25, "scenario": 3, "profit-margin": 20_000}, gas_table=None)
@example(values={"accounts": 30, "actions": 25, "gas-price-gwei": 0.0}, gas_table=None)
@example(values={"accounts": 30, "actions": 25, "gas-price-gwei": 1e-12}, gas_table=None)
@example(values={"accounts": 30, "actions": 25, "gas-price-gwei": math.nan}, gas_table=None)
@example(values={"accounts": 30, "actions": 25, "gas-price-gwei": math.inf}, gas_table=None)
@example(values={"accounts": 30, "actions": 25, "gas-price-gwei": 20_000.0}, gas_table=None)
@example(values={"accounts": 30, "actions": 25, "eth-usd": 0.0}, gas_table=None)
@example(values={"accounts": 30, "actions": 25, "eth-usd": math.nan}, gas_table=None)
@example(values={"accounts": 30, "actions": 25, "eth-usd": math.inf}, gas_table=None)
@example(values={"accounts": 30, "actions": 25, "eth-usd": 1e307}, gas_table=None)
@example(values={"accounts": 30, "actions": 25}, gas_table={"perRequesterUpdateGas": 0})
@example(values={"accounts": 30, "actions": 25}, gas_table={"transactionGas": {"updateData": True}})
@example(values={"accounts": 2, "actions": 1, "seed": -1, "gas-price-gwei": 20_000.0}, gas_table=None)
def test_every_accepted_config_completes_or_exits_2_before_writing(values, gas_table):
    # Each run either completes with a reconciled report set, fails inside
    # the simulation naming its settings, period and action, or is
    # rejected with exit 2 before anything is written.
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = ["run", *(f"--{flag}={value}" for flag, value in values.items()), "--out", str(out), "--quiet"]
        if gas_table is not None:
            table = Path(tmp) / "gas.json"
            table.write_text(json.dumps(gas_table))
            argv += ["--gas-table", str(table)]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue()
        if code == 0:
            assert err == ""
            [run_dir] = out.iterdir()
            assert {p.name for p in run_dir.iterdir()} == REPORT_FILES
            summary = (run_dir / "summary.csv").read_text().splitlines()
            assert dict(zip(summary[0].split(","), summary[1].split(",")))["actions"] == str(values["actions"])
        elif code == 1:
            assert re.fullmatch(
                r"error: seed \d+, scenario [123], margin \d+, access fraction \d+, renew fraction \d+, "
                r"period \d+, action \d+: [^\n]*\n",
                err,
            )
        else:
            assert code == 2
            assert re.fullmatch(r"error: [^\n]*\n", err)
            assert not out.exists()


@pytest.fixture
def collector_state():
    """Put the cyclic collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    gc.enable() if enabled else gc.disable()


@pytest.mark.parametrize("argv", [
    ["run", *SMALL],
    ["sweep", *SMALL, "--seeds", "3"],
    ["run", *PAYMENT_FAILURE, "--access-fraction", "100", "--profit-margin", "10000"],
    ["sweep", *PAYMENT_FAILURE, "--seeds", "2", "--access-fractions", "100", "--margins", "150,10000"],
    ["run", *SMALL, "--seed", "-1"],
], ids=" ".join)
def test_a_command_leaves_no_cyclic_garbage(tmp_path, monkeypatch, argv):
    # main runs with the cyclic collector off, which is safe only while
    # reference counting alone frees a run: no part of its state may sit in
    # a reference cycle, or it would stay in memory for the whole command.
    # pytest's log capture would keep a failed run's traceback, and with it
    # the run, reachable; a command's own log handler keeps no record.
    monkeypatch.setattr(logging.getLogger("incentiveledger.cli"), "propagate", False)
    pin_cpus(monkeypatch, 1)  # the collector sees this process only, so a sweep runs in it
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        main([*argv, "--out", str(tmp_path), "--quiet"])
        gc.collect()
        leaked = sorted({type(obj).__qualname__ for obj in gc.garbage
                         if type(obj).__module__.startswith("incentiveledger")})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == []


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_state(tmp_path, monkeypatch, collector_state, enabled):
    gc.enable() if enabled else gc.disable()
    for code, argv in [
        (0, ["run", *SMALL]),
        (1, ["run", *SMALL, "--gas-price-gwei", "20000"]),
        (2, ["run", *SMALL, "--seed", "-1"]),
    ]:
        assert run_cli(*argv, "--out", str(tmp_path), "--quiet") == code
        assert gc.isenabled() is enabled
    with pytest.raises(SystemExit):
        run_cli("run", "--bogus")
    assert gc.isenabled() is enabled
    seen = []

    def crash(cfg, shared=None):
        seen.append(gc.isenabled())
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "run_simulation", crash)
    with pytest.raises(RuntimeError):
        run_cli("run", *SMALL, "--out", str(tmp_path), "--quiet")
    assert gc.isenabled() is enabled
    assert seen == [False]


@pytest.mark.parametrize("enabled", [True, False])
def test_library_calls_keep_the_collector_state(tmp_path, collector_state, enabled):
    gc.enable() if enabled else gc.disable()
    result = run_simulation(SimConfig(action_ticker=25, population=PopulationConfig(n_accounts=30)))
    assert gc.isenabled() is enabled
    write_run_reports(result, tmp_path)
    assert gc.isenabled() is enabled
