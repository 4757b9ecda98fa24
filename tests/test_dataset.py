"""Dataset contract: publication, cost accrual, setters, teardown."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incentiveledger import DatasetContract, Scenario, WEI_PER_ETH
from incentiveledger.chain import (
    DEPLOYMENT,
    DESTROY,
    PUBLISH_DATA,
    SET_LICENSE,
    SET_MULTIS,
    SET_PRICE,
    SET_PROFIT_MARGIN,
    SET_REGISTRY_ADDRESS,
    UPDATE_DATA,
    WITHDRAW,
)
from incentiveledger.errors import (
    AlreadyDestroyedError,
    DestroyedError,
    InsufficientFundsError,
    NotOwnerError,
    NotProviderError,
    OutOfRangeError,
)
from incentiveledger.tokens import BurnCause, burn_token, quote_payment, renew_access_time, request_access

# Frozen from the default gas schedule at 72 Gwei: deployment plus
# publication, margin 100, computed once by hand and pinned.
PUBLICATION_POOL_WEI = 491_024_880_000_000_000


def paid_request(contract, user):
    quote = quote_payment(contract, "access")
    return request_access(user, contract, quote)


def publish(market, scenario=Scenario.COST_RECOVERY, **kwargs):
    return DatasetContract.deploy_and_publish(
        market.chain,
        market.registry,
        market.provider,
        link="data://unit/1",
        required_license=1,
        scenario=scenario,
        **kwargs,
    )


def test_publication_accrues_deploy_and_publish_fees(market):
    contract = publish(market)
    assert not contract.destroyed
    assert contract.current_cost_wei == PUBLICATION_POOL_WEI
    assert contract.provider_cost_wei == PUBLICATION_POOL_WEI
    assert [r.function for r in market.chain.receipts[-2:]] == [DEPLOYMENT, PUBLISH_DATA]
    fees = sum(r.gas_fee_wei for r in market.chain.receipts[-2:])
    assert fees == PUBLICATION_POOL_WEI


def test_profit_margin_scales_pool_not_provider_cost(market):
    contract = publish(market, scenario=Scenario.PROFIT, profit_margin_pct=200)
    assert contract.current_cost_wei == 2 * PUBLICATION_POOL_WEI
    assert contract.provider_cost_wei == PUBLICATION_POOL_WEI


@pytest.mark.parametrize("margin,gas,expected_pool", [
    (100, 7, 504_000_000_000),  # 7 gas * 72 Gwei
    (150, 7, 756_000_000_000),
    (101, 1, 72_720_000_000),
    (10_000, 1, 7_200_000_000_000),
])
def test_accrual_margin_floors_to_whole_wei(market, margin, gas, expected_pool):
    contract = publish(market, scenario=Scenario.PROFIT if margin > 100 else Scenario.COST_RECOVERY,
                       profit_margin_pct=margin)
    contract.current_cost_wei = 0
    contract.provider_cost_wei = 0
    fee = market.chain.price.fee_wei(gas)
    contract.accrue_cost(fee)
    assert contract.current_cost_wei == expected_pool == fee * margin // 100
    assert contract.provider_cost_wei == fee


def test_publication_requires_approved_provider(market):
    stranger = market.users[0]
    with pytest.raises(NotProviderError):
        DatasetContract.deploy_and_publish(
            market.chain, market.registry, stranger,
            link="x", required_license=1, scenario=Scenario.COST_RECOVERY,
        )


def test_publication_pct_validation(market):
    for kwargs in (
        {"profit_margin_pct": 99},
        {"profit_margin_pct": 10_001},
        {"access_fraction_pct": 0},
        {"access_fraction_pct": 101},
        {"renew_fraction_pct": 0},
        {"access_fraction_pct": True},  # bool is an int subclass: True must not charge 1%
        {"renew_fraction_pct": True},
    ):
        with pytest.raises(OutOfRangeError):
            publish(market, **kwargs)


def test_publication_checks_affordability_upfront(market):
    # Short of deployment plus publication by a lot or by one wei, a provider
    # is refused before either call: no receipt, and no contract account.
    chain = market.chain
    fees = chain.price.fee_wei(chain.schedule.gas_for(DEPLOYMENT) + chain.schedule.gas_for(PUBLISH_DATA))
    for i, funds in enumerate((WEI_PER_ETH // 10, fees - 1)):
        poor = chain.create_named_account(f"poor-provider-{i}", funds)
        market.registry.new_data_provider(market.authority, poor)
        receipts, accounts = len(chain.receipts), set(chain.accounts)
        with pytest.raises(InsufficientFundsError):
            DatasetContract.deploy_and_publish(
                chain, market.registry, poor,
                link="x", required_license=1, scenario=Scenario.COST_RECOVERY,
            )
        assert len(chain.receipts) == receipts and set(chain.accounts) == accounts


def test_update_gas_grows_linearly_with_active_tokens(published):
    contract, chain = published.contract, published.chain
    base = contract.update_data(published.provider)
    per = chain.schedule.per_requester_update_gas
    for expected_tokens, user in enumerate(published.users, start=1):
        paid_request(contract, user)
        receipt = contract.update_data(published.provider)
        assert receipt.gas_used == base.gas_used + per * expected_tokens


def test_update_requires_owner(published):
    with pytest.raises(NotOwnerError):
        published.contract.update_data(published.users[0])


def test_update_invalidates_compliance(published):
    contract = published.contract
    token = paid_request(contract, published.users[0])
    assert token.compliance
    contract.update_data(published.provider)
    assert not token.compliance


def test_set_license_burns_only_mismatched_tokens(market):
    contract = publish(market)
    market.registry.update_user_license(market.authority, market.users[1], 2)
    t1 = paid_request(contract, market.users[0])
    contract.set_license(market.provider, 2)
    assert t1.burned
    assert market.users[0] not in contract.holders
    t2 = paid_request(contract, market.users[1])
    contract.set_license(market.provider, 2)  # no-op for matching token
    assert not t2.burned


def test_setters_accrue_and_update_state(published):
    contract = published.contract
    pool_before = contract.current_cost_wei
    receipts = [
        contract.set_profit_margin(published.provider, 100),
        contract.set_multis(published.provider, 10, 20),
        contract.set_price(published.provider, 123),
        contract.set_registry_address(published.provider, published.registry),
    ]
    assert [r.function for r in receipts] == [
        SET_PROFIT_MARGIN, SET_MULTIS, SET_PRICE, SET_REGISTRY_ADDRESS,
    ]
    assert contract.access_fraction_pct == 10
    assert contract.renew_fraction_pct == 20
    assert contract.price_wei == 123
    assert contract.current_cost_wei == pool_before + sum(r.gas_fee_wei for r in receipts)


def test_setter_validation(published):
    contract = published.contract
    with pytest.raises(OutOfRangeError):
        contract.set_profit_margin(published.provider, 99)
    with pytest.raises(OutOfRangeError):
        contract.set_multis(published.provider, 0, 5)
    with pytest.raises(OutOfRangeError):
        contract.set_multis(published.provider, 5, True)
    with pytest.raises(OutOfRangeError):
        contract.set_price(published.provider, -1)
    contract.set_price(published.provider, 0)  # a free dataset is allowed
    assert contract.price_wei == 0
    with pytest.raises(NotOwnerError):
        contract.set_price(published.users[0], 1)


def test_withdraw_pulls_contract_balance_to_owner(published):
    contract, chain = published.contract, published.chain
    paid_request(contract, published.users[0])
    held = contract.contract_balance_wei
    assert held > 0
    owner_before = chain.balance(published.provider)
    receipt = contract.withdraw(published.provider)
    assert receipt.function == WITHDRAW and receipt.gas_used == 0
    assert contract.contract_balance_wei == 0
    assert chain.balance(published.provider) == owner_before + held
    assert not contract.destroyed  # withdraw leaves the contract live


def test_destroy_pays_out_then_bricks_everything(published):
    contract, chain = published.contract, published.chain
    token = paid_request(contract, published.users[0])
    held = contract.contract_balance_wei
    owner_before = chain.balance(published.provider)
    with pytest.raises(NotOwnerError):
        contract.destroy(published.users[0])
    receipt = contract.destroy(published.provider)
    assert receipt.function == DESTROY
    assert chain.balance(published.provider) == owner_before + held
    assert contract.destroyed
    assert contract.current_cost_wei == 0 and contract.provider_cost_wei == 0
    assert contract.holders == {}
    with pytest.raises(AlreadyDestroyedError):
        contract.destroy(published.provider)
    # Each call checks destruction first: the cleared contract would
    # otherwise raise another error (no token) or succeed.
    for call in (
        lambda: contract.update_data(published.provider),
        lambda: contract.set_price(published.provider, 1),
        lambda: contract.withdraw(published.provider),
        lambda: request_access(published.users[1], contract, 0),
        lambda: renew_access_time(published.users[0], contract, 0),
        lambda: burn_token(contract, token, BurnCause.REQUESTER),
    ):
        with pytest.raises(DestroyedError):
            call()


def test_quote_scales_with_margin_exactly(market):
    # Same chain state, two margins: the 200% quote is exactly double.
    low = publish(market)
    high = publish(market, scenario=Scenario.PROFIT, profit_margin_pct=200)
    q_low = quote_payment(low, "access")
    q_high = quote_payment(high, "access")
    assert q_high == 2 * q_low


@settings(max_examples=80, deadline=None)
@given(
    margin=st.integers(min_value=100, max_value=10_000),
    events=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=10**6)),
        max_size=40,
    ),
)
def test_cost_ledgers_fold_correctly_under_any_event_order(margin, events):
    from incentiveledger.chain import ChainState
    from incentiveledger.tokens import TokenStore

    chain = ChainState()
    contract = DatasetContract(
        chain=chain, registry=None, owner=None,
        contract_address=chain.next_contract_address(),
        link="x", required_license=1, scenario=Scenario.PROFIT,
        profit_margin_pct=margin, access_fraction_pct=5, renew_fraction_pct=5,
        token_store=TokenStore(),
    )
    fees, payments = 0, 0
    for is_accrual, amount in events:
        if is_accrual:
            fee = chain.price.fee_wei(amount)
            contract.accrue_cost(fee)
            fees += fee
        else:
            contract.apply_payment(amount)
            payments += amount
        assert contract.current_cost_wei >= 0
    assert contract.provider_cost_wei == fees
    assert contract.provider_earnings_wei == payments
    # Payments only ever drain the pool; accruals alone bound it above.
    assert contract.current_cost_wei <= fees * margin // 100
