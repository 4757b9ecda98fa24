from __future__ import annotations

from types import SimpleNamespace
from typing import Iterable

import pytest

from incentiveledger import (
    ChainState,
    DatasetContract,
    DEFAULT_LICENSE,
    Registry,
    Scenario,
    WEI_PER_ETH,
)

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
