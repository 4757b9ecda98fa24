"""Access tokens: quoting, payment checks, renewal, compliance, burning."""

from __future__ import annotations

import gc
import hashlib
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import golden_config, quote_rule, report_text

from incentiveledger import (
    ACCESS_PERIODS,
    BurnCause,
    ChainState,
    DatasetContract,
    DEFAULT_LICENSE,
    Registry,
    Scenario,
    burn_token,
    confirm_compliance,
    get_link,
    quote_payment,
    renew_access_time,
    request_access,
)
from incentiveledger.chain import ADD_DATA_REQUESTER, NULL_ADDRESS, RENEW_TOKEN
from incentiveledger.engine import run_simulation
from incentiveledger.errors import (
    AlreadyBurnedError,
    ComplianceRequiredError,
    DestroyedError,
    DuplicateTokenError,
    ExcessPaymentError,
    ExpiredError,
    InsufficientPaymentError,
    LicenseMismatchError,
    NoTokenError,
)
from incentiveledger.tokens import TokenEvent, TokenStore

# Hand-derived 5% quotes against the frozen publication pool of
# 491,024,880,000,000,000 wei (margin 100): ceil(pool*5/100), then the
# same again on the drained pool.
FIRST_ACCESS_QUOTE_WEI = 24_551_244_000_000_000
SECOND_ACCESS_QUOTE_WEI = 23_323_681_800_000_000


def pay_access(contract, user):
    return request_access(user, contract, quote_payment(contract, "access"))


def test_first_two_quotes_match_hand_derivation(published):
    contract = published.contract
    assert quote_payment(contract, "access") == FIRST_ACCESS_QUOTE_WEI
    pay_access(contract, published.users[0])
    assert quote_payment(contract, "access") == SECOND_ACCESS_QUOTE_WEI


def test_each_payment_drains_five_percent(published):
    contract = published.contract
    pool = contract.current_cost_wei
    for user in published.users:
        expected = -(-pool * 5 // 100)  # ceil(pool * 5 / 100)
        assert quote_payment(contract, "access") == expected
        pay_access(contract, user)
        pool -= expected
        assert contract.current_cost_wei == pool


def test_payment_must_match_quote_exactly(published):
    contract = published.contract
    quote = quote_payment(contract, "access")
    with pytest.raises(InsufficientPaymentError):
        request_access(published.users[0], contract, quote - 1)
    with pytest.raises(ExcessPaymentError):
        request_access(published.users[0], contract, quote + 1)
    # Failed attempts leave no token and move no wei.
    assert contract.token_store.tokens == {}
    assert contract.contract_balance_wei == 0


def test_non_compensating_scenario_quotes_zero(market):
    contract = DatasetContract.deploy_and_publish(
        market.chain, market.registry, market.provider,
        link="x", required_license=1, scenario=Scenario.NO_COMPENSATION,
    )
    assert quote_payment(contract, "access") == quote_payment(contract, "renewal")
    assert quote_payment(contract, "access") == 0
    token = request_access(market.users[0], contract, 0)
    # The gas-only request leaves the pool untouched and pays the contract nothing.
    assert contract.current_cost_wei > 0
    assert contract.contract_balance_wei == 0
    assert contract.provider_earnings_wei == 0
    assert contract.holders == {market.users[0]: token}


def test_quote_kind_validation(published):
    with pytest.raises(ValueError):
        quote_payment(published.contract, "sublease")


def test_request_guards(published):
    contract = published.contract
    stranger = published.chain.create_named_account("stranger", 10**18)
    with pytest.raises(LicenseMismatchError):
        request_access(stranger, contract, quote_payment(contract, "access"))
    pay_access(contract, published.users[0])
    with pytest.raises(DuplicateTokenError):
        pay_access(contract, published.users[0])
    contract.destroyed = True
    for call in (
        lambda: pay_access(contract, published.users[1]),
        lambda: quote_payment(contract, "access"),
        lambda: confirm_compliance(published.users[0], contract),
        lambda: get_link(published.users[0], contract),
    ):
        with pytest.raises(DestroyedError):
            call()


def test_a_destroyed_contract_takes_no_payment(published):
    # The gateway's one liveness check guards each payment: flagged destroyed while
    # tokens are still live, the contract refuses renewals and requests before any booking.
    contract, chain, (compliant, stale, newcomer) = published.contract, published.chain, published.users
    pay_access(contract, compliant)
    pay_access(contract, stale)
    contract.update_data(published.provider)
    confirm_compliance(compliant, contract)
    renewal, access = quote_payment(contract, "renewal"), quote_payment(contract, "access")
    contract.destroyed = True
    store = contract.token_store

    def state():
        return (list(chain.receipts), dict(chain.accounts), contract.current_cost_wei,
                contract.provider_earnings_wei, store.events, report_text(store.table_csv()))

    before = state()
    for call in (
        lambda: renew_access_time(compliant, contract, renewal),
        lambda: renew_access_time(stale, contract, renewal),
        lambda: request_access(newcomer, contract, access),
    ):
        with pytest.raises(DestroyedError):
            call()
    assert state() == before


def test_request_pays_gas_plus_quote(published):
    contract, chain = published.contract, published.chain
    user = published.users[0]
    balance_before = chain.balance(user)
    quote = quote_payment(contract, "access")
    gas_fee = chain.price.fee_wei(chain.schedule.gas_for(ADD_DATA_REQUESTER))
    pay_access(contract, user)
    assert chain.balance(user) == balance_before - gas_fee - quote
    assert contract.contract_balance_wei == quote
    assert contract.provider_earnings_wei == quote


def test_token_lifecycle_minting_fields(published):
    contract = published.contract
    token = pay_access(contract, published.users[0])
    assert token.minted_period == 0
    assert token.access_until == ACCESS_PERIODS
    assert token.compliance and not token.burned
    assert get_link(published.users[0], contract) == contract.link


def test_link_expires_at_access_until(published):
    contract, chain = published.contract, published.chain
    token = pay_access(contract, published.users[0])
    chain.period = token.access_until - 1
    assert get_link(published.users[0], contract) == contract.link
    chain.period = token.access_until
    with pytest.raises(ExpiredError):
        get_link(published.users[0], contract)
    with pytest.raises(NoTokenError):
        get_link(published.users[1], contract)


def test_renewal_stacks_unexpired_and_restarts_expired(published):
    contract, chain = published.contract, published.chain
    user = published.users[0]
    token = pay_access(contract, user)
    # Unexpired: extends on top of the current window.
    until = token.access_until
    renew_access_time(user, contract, quote_payment(contract, "renewal"))
    assert token.access_until == until + ACCESS_PERIODS
    # Expired: restarts from the current period instead.
    chain.period = token.access_until + 7
    renew_access_time(user, contract, quote_payment(contract, "renewal"))
    assert token.access_until == chain.period + ACCESS_PERIODS


def test_renewal_requires_token_and_compliance(published):
    contract = published.contract
    user = published.users[0]
    with pytest.raises(NoTokenError):
        renew_access_time(user, contract, 0)
    pay_access(contract, user)
    contract.update_data(published.provider)
    quote = quote_payment(contract, "renewal")
    with pytest.raises(ComplianceRequiredError):
        renew_access_time(user, contract, quote)
    confirm_compliance(user, contract)
    token = renew_access_time(user, contract, quote_payment(contract, "renewal"))
    assert token.compliance


def test_update_notifies_every_holder_and_confirm_is_free(published):
    contract, chain = published.contract, published.chain
    tokens = [pay_access(contract, user) for user in published.users]
    contract.update_data(published.provider)
    assert all(not t.compliance for t in tokens)
    n_receipts = len(chain.receipts)
    for user in published.users:
        confirm_compliance(user, contract)
    assert all(t.compliance for t in tokens)
    assert len(chain.receipts) == n_receipts
    kinds = [e.kind for e in contract.token_store.events]
    assert kinds.count("updateNotice") == 3
    assert kinds.count("complianceConfirmed") == 3


def test_update_entries_expand_to_the_per_holder_trail(published):
    # The store keeps one entry per update; events expands each into one
    # notice per holder, in log order, under the address it notified.
    contract, chain, store = published.contract, published.chain, published.contract.token_store
    alice, bob, carol = published.users
    a, b = pay_access(contract, alice), pay_access(contract, bob)
    chain.period = 1
    contract.update_data(published.provider)
    confirm_compliance(alice, contract)
    renew_access_time(alice, contract, quote_payment(contract, "renewal"))
    chain.period = 2
    c = pay_access(contract, carol)
    contract.set_license(published.provider, DEFAULT_LICENSE + 1)  # burns all three
    trail = [
        TokenEvent("minted", 0, a.token_id, alice),
        TokenEvent("minted", 0, b.token_id, bob),
        TokenEvent("updateNotice", 1, a.token_id, alice),
        TokenEvent("updateNotice", 1, b.token_id, bob),
        TokenEvent("complianceConfirmed", 1, a.token_id, alice),
        TokenEvent("renewed", 1, a.token_id, alice),
        TokenEvent("minted", 2, c.token_id, carol),
        TokenEvent("burnNotice", 2, a.token_id, alice),
        TokenEvent("burnNotice", 2, b.token_id, bob),
        TokenEvent("burnNotice", 2, c.token_id, carol),
    ]
    assert a.user == b.user == NULL_ADDRESS
    assert store.events == trail
    chain.period = 3
    contract.update_data(published.provider)  # no holders left: no notice
    assert store.events == trail
    read = store.events
    read.clear()
    assert read is not store.events and store.events == trail


# The expanded trail of the two benchmark runs at seed 0, one line
# "kind,period,token_id,user" per event. Neither run burns a token.
GOLDEN_EVENT_TRAILS = {
    "scale-20k": (192_246, "a99527b5bd00acdfd0159ec422cad6b6a16dff9907019972089cd6a816f0dc69"),
    "update-heavy": (152_409, "45f8bfb2230a1555021e52f4b9e181fc6744d178aa03f00fea780d3dcb86d9b7"),
}


@pytest.mark.parametrize("name", GOLDEN_EVENT_TRAILS)
def test_token_event_trail_matches_golden_digest(name):
    count, digest = GOLDEN_EVENT_TRAILS[name]
    events = run_simulation(golden_config(name)).token_store.events
    trail = "".join(f"{e.kind},{e.period},{e.token_id},{e.user}\n" for e in events)
    assert (len(events), hashlib.sha256(trail.encode()).hexdigest()) == (count, digest)


def test_an_update_entry_has_a_fixed_size():
    # An entry must not copy the holder list: 1,000 updates of 100 holders
    # cost 1,735 KiB when each entry held two tuples of the holders, and
    # 117 KiB when each also held its log position.
    store = TokenStore()
    holders = {}
    for i in range(100):
        token = store.mint("dataset-01", f"acct-{i:04d}", DEFAULT_LICENSE, 0)
        holders[token.user] = token
    gc.collect()  # empties the free lists, so tuples freed by earlier tests cannot hide allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for period in range(1, 1_001):
            store.invalidate_compliance(holders, period)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert not any(t.compliance for t in holders.values())
    assert grown < 100 * 1024, grown


def test_the_token_log_holds_four_references_per_entry():
    # The log keeps an entry's four fields in one flat list and no object per entry. Dropping it
    # in a 20k-action run at the scale-20k settings frees 8 B per field, plus the eighth a list
    # over-allocates, and at most each period's int (32 B), which the log may hold last. With a
    # TokenEvent per entry (64-72 B) it freed 2,456,262 B here, against a bound of 1,275,836 B.
    tracemalloc.start()
    try:
        result = run_simulation(golden_config("scale-20k"))
        log = result.token_store._log
        assert len(log) % 4 == 0 and {type(field) for field in log} <= {str, int, type(None)}
        entries, held = len(log) // 4, tracemalloc.get_traced_memory()[0]
        log.clear()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert entries > 30_000 and held <= 4 * 8 * entries * 9 // 8 + 32 * len(result.series), (held, entries)


def test_requester_burn_certifies_compliance(published):
    contract, chain = published.contract, published.chain
    user = published.users[0]
    token = pay_access(contract, user)
    contract.update_data(published.provider)  # leaves compliance false
    chain.period = 1
    burn_token(contract, token, BurnCause.REQUESTER)
    assert token.burned and token.compliance
    assert token.remaining_at_burn == ACCESS_PERIODS - 1  # minted at period 0
    assert token.user == NULL_ADDRESS
    assert user not in contract.holders
    with pytest.raises(AlreadyBurnedError):
        burn_token(contract, token, BurnCause.REQUESTER)
    # The address is free to request again with a fresh token.
    token2 = pay_access(contract, user)
    assert token2.token_id != token.token_id


def test_license_change_burn_marks_noncompliant(published):
    contract = published.contract
    token = pay_access(contract, published.users[0])
    burn_token(contract, token, BurnCause.LICENSE_CHANGE)
    assert token.burned and not token.compliance


def test_a_token_burns_only_through_its_own_contract(market):
    # A burn through another contract must raise and change nothing: the
    # token stays live on its own contract, which still bills and
    # notifies its holder on the next update.
    store = TokenStore()
    a, b = (
        DatasetContract.deploy_and_publish(
            market.chain, market.registry, market.provider, link=f"data://unit/{i}",
            required_license=DEFAULT_LICENSE, scenario=Scenario.COST_RECOVERY, token_store=store,
        )
        for i in (1, 2)
    )
    user = market.users[0]
    token = pay_access(a, user)

    def state():
        tokens = {i: replace(t) for i, t in store.tokens.items()}
        return (dict(a.holders), dict(b.holders), tokens, list(store.events),
                list(market.chain.receipts), dict(market.chain.accounts))

    before = state()
    with pytest.raises(NoTokenError):
        burn_token(b, token, BurnCause.REQUESTER)
    assert state() == before
    assert a.holders == {user: token} and not token.burned


def test_store_tracks_live_tokens_in_id_order(published):
    contract = published.contract
    store = contract.token_store
    minted = [pay_access(contract, user) for user in published.users]
    burn_token(contract, minted[1], BurnCause.REQUESTER)
    assert [t.token_id for t in store.live_tokens()] == [minted[0].token_id, minted[2].token_id]
    assert list(contract.holders.values()) == [minted[0], minted[2]]
    lines = report_text(store.table_csv()).splitlines()
    assert lines[0] == "tokenId,dataset,user,mintedPeriod,accessUntil,compliance,burned,remainingAtBurn"
    assert len(lines) == 4


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["request", "burn", "license-change", "update", "confirm", "renew"]),
              st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=1)),
    max_size=40,
))
def test_store_counts_holders_and_orders_live_tokens_under_any_history(ops):
    # Requests mint (and re-mint after a burn); burns come from the holder
    # or from a license change that evicts every holder of one dataset.
    # Each op appends the events it expects to a shadow trail; an update
    # notifies each holder the contract has just before it, in mint order.
    # The history ends with every user holding a token and one update per
    # contract, so the trail shows whom each dataset notifies by then.
    chain = ChainState()
    authority = chain.create_named_account("authority", 10**21)
    provider, *users = chain.create_accounts(5, 10**21)
    registry = Registry.deploy(chain, authority)
    registry.new_data_provider(authority, provider)
    for user in users:
        registry.register_new_user(authority, user, DEFAULT_LICENSE)
    store = TokenStore()
    contracts = [
        DatasetContract.deploy_and_publish(
            chain, registry, provider, link=f"data://store/{i}", required_license=DEFAULT_LICENSE,
            scenario=Scenario.NO_COMPENSATION, token_store=store,
        )
        for i in range(2)
    ]
    trail = []
    last = [("request", u, c) for c in range(2) for u in range(4)] + [("update", 0, c) for c in range(2)]
    for period, (op, user_index, contract_index) in enumerate(ops + last):
        chain.period = period
        user, contract = users[user_index], contracts[contract_index]
        held = contract.holders.get(user)
        if op == "request" and held is None:
            token = request_access(user, contract, 0)
            trail.append(TokenEvent("minted", period, token.token_id, user))
        elif op == "burn" and held is not None:
            burn_token(contract, held, BurnCause.REQUESTER)
            trail.append(TokenEvent("burnNotice", period, held.token_id, user))
        elif op == "license-change":
            trail += [TokenEvent("burnNotice", period, t.token_id, h) for h, t in contract.holders.items()]
            contract.set_license(provider, DEFAULT_LICENSE + 1)
            contract.set_license(provider, DEFAULT_LICENSE)
        elif op == "update":
            trail += [TokenEvent("updateNotice", period, t.token_id, h) for h, t in contract.holders.items()]
            contract.update_data(provider)
        elif op == "confirm" and held is not None:
            confirm_compliance(user, contract)
            trail.append(TokenEvent("complianceConfirmed", period, held.token_id, user))
        elif op == "renew" and held is not None and held.compliance:
            renew_access_time(user, contract, 0)
            trail.append(TokenEvent("renewed", period, held.token_id, user))
        live = list(store.live_tokens())
        assert [t.token_id for t in live] == sorted(i for i, t in store.tokens.items() if not t.burned)
        for c in contracts:
            assert list(c.holders.items()) == [(t.user, t) for t in live if t.dataset_address == c.contract_address]
    assert store.events == trail


@settings(max_examples=40, deadline=None)
@given(pool=st.integers(min_value=1, max_value=10**21),
       pct=st.integers(min_value=1, max_value=100))
def test_repeated_ceil_payments_reach_zero_in_bounded_steps(pool, pct):
    # Ceiling quotes guarantee the pool hits exactly zero: each payment
    # takes at least 1 wei and at least pct% of what remains.
    remaining = pool
    steps = 0
    while remaining > 0:
        payment = quote_rule(remaining, pct)
        assert payment >= 1
        remaining -= payment
        assert remaining >= 0
        steps += 1
        assert steps <= 5_000  # geometric decay plus the 1-wei floor
    assert remaining == 0


@settings(max_examples=40, deadline=None)
@given(pool=st.integers(min_value=0, max_value=10**21),
       pct_low=st.integers(min_value=1, max_value=99),
       bump=st.integers(min_value=1, max_value=50))
def test_quote_is_monotone_in_fraction_and_pool(pool, pct_low, bump):
    pct_high = min(100, pct_low + bump)
    assert quote_rule(pool, pct_low) <= quote_rule(pool, pct_high)
    assert quote_rule(pool, pct_low) <= quote_rule(pool + 1, pct_low)
