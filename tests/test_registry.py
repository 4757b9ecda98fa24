"""Membership registry: authority gating, metered writes, free reads."""

from __future__ import annotations

import sys
import tracemalloc

import pytest

from conftest import report_text

from incentiveledger import DEFAULT_LICENSE, PopulationConfig, Registry, SimConfig, WEI_PER_ETH
from incentiveledger.chain import (
    MINER_ADDRESS,
    NEW_DATA_PROVIDER,
    REGISTER_NEW_USER,
    REGISTRY_DEPLOYMENT,
    UPDATE_USER_LICENSE,
)
from incentiveledger.engine import build_start
from incentiveledger.errors import (
    AlreadyRegisteredError,
    InsufficientFundsError,
    NotAuthorityError,
    NotRegisteredError,
)


@pytest.fixture
def deployed(chain):
    authority = chain.create_named_account("authority", 10 * WEI_PER_ETH)
    outsider = chain.create_named_account("outsider", 10 * WEI_PER_ETH)
    member = chain.create_named_account("member", 0)
    registry = Registry.deploy(chain, authority)
    return chain, registry, authority, outsider, member


def test_deploy_is_metered(deployed):
    chain, registry, authority, *_ = deployed
    assert [r.function for r in chain.receipts] == [REGISTRY_DEPLOYMENT]
    assert chain.receipts[0].caller == authority
    assert registry.authority == authority


def test_only_authority_may_mutate(deployed):
    chain, registry, authority, outsider, member = deployed
    for call in (
        lambda: registry.register_new_user(outsider, member, DEFAULT_LICENSE),
        lambda: registry.new_data_provider(outsider, member),
        lambda: registry.update_user_license(outsider, member, 2),
    ):
        with pytest.raises(NotAuthorityError):
            call()
    # Denied calls never reach the chain.
    assert len(chain.receipts) == 1


def test_registration_bills_authority_not_member(deployed):
    chain, registry, authority, outsider, member = deployed
    before = chain.balance(authority)
    registry.register_new_user(authority, member, DEFAULT_LICENSE)
    registry.new_data_provider(authority, member)
    fees = sum(r.gas_fee_wei for r in chain.receipts[-2:])
    assert chain.balance(authority) == before - fees
    assert chain.balance(member) == 0
    assert [r.function for r in chain.receipts[-2:]] == [REGISTER_NEW_USER, NEW_DATA_PROVIDER]


def test_duplicate_registration_rejected(deployed):
    chain, registry, authority, outsider, member = deployed
    registry.register_new_user(authority, member, DEFAULT_LICENSE)
    registry.new_data_provider(authority, member)
    receipts_before = len(chain.receipts)
    with pytest.raises(AlreadyRegisteredError):
        registry.register_new_user(authority, member, DEFAULT_LICENSE)
    with pytest.raises(AlreadyRegisteredError):
        registry.new_data_provider(authority, member)
    assert len(chain.receipts) == receipts_before


def test_license_update_requires_existing_user(deployed):
    chain, registry, authority, outsider, member = deployed
    with pytest.raises(NotRegisteredError):
        registry.update_user_license(authority, member, 2)
    registry.register_new_user(authority, member, DEFAULT_LICENSE)
    receipt = registry.update_user_license(authority, member, 2)
    assert receipt.function == UPDATE_USER_LICENSE
    assert registry.check_user(member, 2)
    assert not registry.check_user(member, DEFAULT_LICENSE)


def test_checks_are_free_reads(deployed):
    chain, registry, authority, outsider, member = deployed
    registry.register_new_user(authority, member, DEFAULT_LICENSE)
    n = len(chain.receipts)
    assert registry.check_user(member, DEFAULT_LICENSE)
    assert not registry.check_user(outsider, DEFAULT_LICENSE)
    assert not registry.check_provider(member)
    assert len(chain.receipts) == n


def test_snapshot_csv_sorted_with_merged_roles(deployed):
    chain, registry, authority, outsider, member = deployed
    registry.register_new_user(authority, member, 3)
    registry.new_data_provider(authority, member)
    registry.new_data_provider(authority, outsider)
    lines = report_text(registry.snapshot_csv()).splitlines()
    assert lines[0] == "address,role,license"
    assert lines[1:] == sorted(lines[1:])
    assert "member,provider+user,3" in lines
    assert "outsider,provider," in lines


def test_a_20k_snapshot_holds_no_tuple_per_row():
    # The snapshot sorts one list of addresses and formats each row from users and providers.
    chain, registry = build_start(SimConfig(population=PopulationConfig(n_accounts=20_000, max_providers=3)))
    tracemalloc.start()
    try:
        settled = tracemalloc.get_traced_memory()[0]
        rows = sum(block.count("\n") for block in registry.snapshot_csv()) - 1
        peak = tracemalloc.get_traced_memory()[1] - settled
    finally:
        tracemalloc.stop()
    assert rows == len(registry.users) + len(registry.providers) == 20_000
    assert peak < rows * sys.getsizeof(("user", DEFAULT_LICENSE)), peak


def test_a_batch_books_one_receipt_per_user(deployed):
    chain, registry, authority, outsider, member = deployed
    before = chain.balance(authority)
    receipts = registry.register_new_users(authority, [outsider, member], 3)
    # One receipt object fills the batch's two positions, 1 and 2.
    assert receipts == chain.receipts[1:] and len(chain.receipts) == 3 and receipts[0] is receipts[1]
    assert {r.function for r in receipts} == {REGISTER_NEW_USER}
    fee = receipts[0].gas_fee_wei
    assert chain.balance(authority) == before - 2 * fee
    assert chain.balance(MINER_ADDRESS) == chain.receipts[0].gas_fee_wei + 2 * fee
    assert registry.users == {outsider: 3, member: 3}


def state(chain, registry):
    return dict(chain.accounts), list(chain.receipts), dict(registry.users)


def test_an_authority_short_of_the_whole_batch_books_none_of_it(chain):
    fee = chain.price.fee_wei(chain.schedule.gas_for(REGISTER_NEW_USER))
    deploy = chain.price.fee_wei(chain.schedule.gas_for(REGISTRY_DEPLOYMENT))
    authority = chain.create_named_account("authority", deploy + 3 * fee - 1)
    users = chain.create_accounts(3, 0)
    registry = Registry.deploy(chain, authority)
    before = state(chain, registry)
    with pytest.raises(InsufficientFundsError) as excinfo:
        registry.register_new_users(authority, users, DEFAULT_LICENSE)
    assert str(excinfo.value) == f"authority holds {3 * fee - 1} wei, needs {3 * fee} for registerNewUser"
    assert state(chain, registry) == before
    registry.register_new_users(authority, users[:2], DEFAULT_LICENSE)  # two fit
    # A single call's line is unchanged: the balance it finds and its own fee.
    with pytest.raises(InsufficientFundsError) as excinfo:
        registry.register_new_user(authority, users[2], DEFAULT_LICENSE)
    assert str(excinfo.value) == f"authority holds {fee - 1} wei, needs {fee} for registerNewUser"


@pytest.mark.parametrize("batch, named", [(["a", "b", "a"], "a"), (["a", "member", "b"], "member")],
                         ids=["twice-in-batch", "registered"])
def test_a_batch_naming_a_registered_user_books_none_of_it(deployed, batch, named):
    chain, registry, authority, outsider, member = deployed
    chain.create_named_account("a")
    chain.create_named_account("b")
    registry.register_new_user(authority, member, DEFAULT_LICENSE)
    before = state(chain, registry)
    with pytest.raises(AlreadyRegisteredError) as excinfo:
        registry.register_new_users(authority, batch, 2)
    assert str(excinfo.value) == f"{named} is already a registered user"
    assert state(chain, registry) == before
    with pytest.raises(ValueError):
        registry.register_new_users(authority, [], 2)
    assert state(chain, registry) == before
