from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable

import pytest

from incentiveledger import (
    ChainState,
    DatasetContract,
    DEFAULT_LICENSE,
    Registry,
    Scenario,
    SimConfig,
    WEI_PER_ETH,
)
from incentiveledger import cli
from incentiveledger.chain import default_gas_schedule

PREFUND = 1_000 * WEI_PER_ETH


def quote_rule(pool: int, fraction_pct: int) -> int:
    """DatasetContract.quote on a scenario-2 pool, without a contract around it."""
    return DatasetContract.quote(SimpleNamespace(scenario=Scenario.COST_RECOVERY, current_cost_wei=pool), fraction_pct)


def report_text(blocks: Iterable[str]) -> str:
    """A report builder's blocks joined into the text of its file."""
    return "".join(blocks)


@pytest.fixture
def chain() -> ChainState:
    return ChainState()


@pytest.fixture
def market(chain):
    """A deployed registry with one approved provider and three licensed users."""
    authority = chain.create_named_account("authority", PREFUND)
    provider, alice, bob, carol = chain.create_accounts(4, PREFUND)
    registry = Registry.deploy(chain, authority)
    registry.new_data_provider(authority, provider)
    for user in (alice, bob, carol):
        registry.register_new_user(authority, user, DEFAULT_LICENSE)
    return SimpleNamespace(
        chain=chain,
        registry=registry,
        authority=authority,
        provider=provider,
        users=[alice, bob, carol],
    )


@pytest.fixture
def published(market):
    """market plus a freshly published cost-recovery dataset."""
    contract = DatasetContract.deploy_and_publish(
        market.chain,
        market.registry,
        market.provider,
        link="data://unit/1",
        required_license=DEFAULT_LICENSE,
        scenario=Scenario.COST_RECOVERY,
    )
    market.contract = contract
    return market


# The golden master: each report tree below is built through cli.main at most once per session
# (golden_tree) and pinned in golden.json by its file count and, per report name, the tree_digest
# of every file of that name.
SCALE_20K = ["run", "--actions", "20000", "--accounts", "20000", "--max-providers", "2", "--gas-price-gwei", "1"]
UPDATE_HEAVY = ["run", "--actions", "20000", "--accounts", "20000", "--max-providers", "20",
                "--provider-prob-max", "0.5"]
GOLDEN = {
    "default": ["run"],
    # 2,615 of its 3,000 actions are renewals: it pins the renewal draw order, one roll per expired token.
    "renewal-heavy": ["run", "--actions", "3000", "--accounts", "3000", "--max-providers", "2"],
    "scale-20k": SCALE_20K,
    "scale-20k-seed-1": [*SCALE_20K, "--seed", "1"],
    "update-heavy": UPDATE_HEAVY,
    "update-heavy-seed-1": [*UPDATE_HEAVY, "--seed", "1"],
    "small-sweep": ["sweep", "--accounts", "30", "--actions", "25", "--scenarios", "2,3", "--access-fractions", "1,10",
                    "--seeds", "3"],
    "three-scenario": ["sweep", "--scenarios", "1,2,3", "--access-fractions", "1,25", "--seeds", "4",
                       "--max-providers", "2"],
    "paper-grid": ["sweep", "--scenarios", "2,3", "--access-fractions", "1,5,10,25", "--seeds", "30"],
}
PINS = json.loads(Path(__file__).with_name("golden.json").read_text(encoding="utf-8"))


def golden_config(name: str) -> SimConfig:
    """The SimConfig that cli.main runs for the golden direct run name."""
    return cli.build_sim_config(cli._resolve_values(cli.build_parser().parse_args(GOLDEN[name])),
                                default_gas_schedule())


def tree_files(root: Path) -> dict[str, bytes]:
    """Every file under root, keyed by its relative path, in sorted path order."""
    paths = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    return {rel: (root / rel).read_bytes() for rel in paths}


def tree_digest(files: dict[str, bytes]) -> str:
    """sha256 over each file's relative path and bytes, in sorted path order."""
    h = hashlib.sha256()
    for rel in sorted(files):
        h.update(rel.encode() + b"\0" + files[rel] + b"\0")
    return h.hexdigest()


def pins_entry(files: dict[str, bytes]) -> dict:
    """A tree's entry in golden.json: its file count, and per report name the tree_digest of its files."""
    by_name: dict[str, dict[str, bytes]] = {}
    for rel, data in files.items():
        by_name.setdefault(rel.rsplit("/", 1)[-1], {})[rel] = data
    return {"files": len(files), "reports": {name: tree_digest(by_name[name]) for name in sorted(by_name)}}


@pytest.fixture(scope="session")
def golden_tree(tmp_path_factory):
    """name -> (its report directory, what the command printed), built on first use and never again this
    session. A test that patches anything must not ask for a tree: it could be the one that builds it."""
    @functools.cache
    def build(name: str) -> tuple[Path, str]:
        out = tmp_path_factory.mktemp(name)
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert cli.main([*GOLDEN[name], "--out", str(out)]) == 0
        return out, stdout.getvalue()

    return build
