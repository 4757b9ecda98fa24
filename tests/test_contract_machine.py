"""Stateful test of the contract API: any sequence of calls keeps the ledger sound.

Two providers own one dataset each and three users trade on them through
every contract and gateway call, including the ones the engine never
makes (licenses, prices, burns, withdrawals, destruction), and burns
through a contract that the token is not live on. After every
step the balances and cost ledgers must match independent replays of the
transaction log, and a call that raises must have changed nothing.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from incentiveledger import DEFAULT_LICENSE, WEI_PER_ETH, ChainState, DatasetContract, Registry, Scenario
from incentiveledger.errors import LedgerError, NoTokenError
from incentiveledger.reporting import replay
from incentiveledger.tokens import (
    BurnCause,
    TokenStore,
    burn_token,
    confirm_compliance,
    quote_payment,
    renew_access_time,
    request_access,
)

# Deployment and publication cost 0.491 ether at the default gas price, an
# owner call about 0.003, and a request 0.034 plus at most 0.074 of payment
# at a margin of 300%, so the small prefunds run out within a few calls.
PROVIDER_FUNDS = st.sampled_from([WEI_PER_ETH // 2, 10 * WEI_PER_ETH])
USER_FUNDS = st.sampled_from([3 * WEI_PER_ETH // 20, 10 * WEI_PER_ETH])
LICENSES = st.sampled_from([DEFAULT_LICENSE, DEFAULT_LICENSE + 1])
# A payment one wei off the quote, either way, must be refused.
OFFSETS = st.sampled_from([0, 0, 0, -1, 1])
CONTRACTS = st.integers(0, 1)
USERS = st.integers(0, 2)
# Picks a live token, or one time in four any (user, dataset) pair.
HOLDINGS = st.integers(0, 11)
# An owner call comes from the owner, or now and then from the user at an index.
CALLERS = st.sampled_from([None, None, None, 0, 2])
PCTS = st.sampled_from([0, 1, 5, 50, 99, 100, 101, 150, 10_000, 10_001])


class ContractAPI(RuleBasedStateMachine):
    @initialize(scenario=st.sampled_from(Scenario), margin=st.integers(100, 300),
                provider_funds=PROVIDER_FUNDS, user_funds=USER_FUNDS)
    def deploy(self, scenario, margin, provider_funds, user_funds):
        self.chain = chain = ChainState()
        self.authority = chain.create_named_account("authority", 10 * WEI_PER_ETH)
        self.providers = chain.create_accounts(2, provider_funds)
        self.users = chain.create_accounts(3, user_funds)
        self.registry = Registry.deploy(chain, self.authority)
        for provider in self.providers:
            self.registry.new_data_provider(self.authority, provider)
        for user in self.users:
            self.registry.register_new_user(self.authority, user, DEFAULT_LICENSE)
        self.store = TokenStore()
        self.contracts = [
            DatasetContract.deploy_and_publish(
                chain, self.registry, provider, link=f"data://machine/{i}", required_license=DEFAULT_LICENSE,
                scenario=scenario, profit_margin_pct=margin, token_store=self.store,
            )
            for i, provider in enumerate(self.providers)
        ]
        self.contract_at = {c.contract_address: c for c in self.contracts}
        # Every user starts out holding a token, so the token rules have
        # something to act on from the first step.
        for i, user in enumerate(self.users):
            c = self.contracts[i % 2]
            request_access(user, c, quote_payment(c, "access"))

    def state(self) -> tuple:
        return (
            dict(self.chain.accounts),
            len(self.chain.receipts),
            dict(self.registry.users),
            [
                (c.current_cost_wei, c.provider_cost_wei, c.provider_earnings_wei, c.meta_version,
                 c.destroyed, c.required_license, c.profit_margin_pct,
                 c.access_fraction_pct, c.renew_fraction_pct, c.price_wei, dict(c.holders))
                for c in self.contracts
            ],
            len(self.store.events),
            [(t.user, t.access_until, t.compliance, t.burned) for t in self.store.tokens.values()],
        )

    def attempt(self, contract: DatasetContract | None, call) -> None:
        """Make one call; if it raises, it must have left every ledger as it was."""
        was_destroyed = contract is not None and contract.destroyed
        before = self.state()
        try:
            call()
        except LedgerError:
            assert self.state() == before
        else:
            assert not was_destroyed, "a call on a destroyed contract went through"

    def caller(self, c: DatasetContract, index: int | None) -> str:
        return c.owner if index is None else self.users[index]

    def holding(self, pick: int) -> tuple[str, DatasetContract]:
        live = list(self.store.live_tokens())
        if live and pick % 4:
            token = live[pick % len(live)]
            return token.user, self.contract_at[token.dataset_address]
        return self.users[pick % 3], self.contracts[pick % 2]

    @rule(user=USERS, which=CONTRACTS, offset=OFFSETS)
    def request(self, user, which, offset):
        c = self.contracts[which]
        self.attempt(c, lambda: request_access(self.users[user], c, quote_payment(c, "access") + offset))

    @rule(pick=HOLDINGS, offset=OFFSETS)
    def renew(self, pick, offset):
        user, c = self.holding(pick)
        self.attempt(c, lambda: renew_access_time(user, c, quote_payment(c, "renewal") + offset))

    @rule(pick=HOLDINGS)
    def confirm(self, pick):
        user, c = self.holding(pick)
        self.attempt(c, lambda: confirm_compliance(user, c))

    @rule(caller=CALLERS, which=CONTRACTS)
    def update(self, caller, which):
        c = self.contracts[which]
        self.attempt(c, lambda: c.update_data(self.caller(c, caller)))

    @rule(caller=CALLERS, which=CONTRACTS, license_code=LICENSES)
    def set_license(self, caller, which, license_code):
        c = self.contracts[which]
        self.attempt(c, lambda: c.set_license(self.caller(c, caller), license_code))

    @rule(by_authority=st.booleans(), user=USERS, license_code=LICENSES)
    def update_user_license(self, by_authority, user, license_code):
        caller = self.authority if by_authority else self.users[user]
        self.attempt(None, lambda: self.registry.update_user_license(caller, self.users[user], license_code))

    @rule(caller=CALLERS, which=CONTRACTS, price=st.integers(-1, WEI_PER_ETH))
    def set_price(self, caller, which, price):
        c = self.contracts[which]
        self.attempt(c, lambda: c.set_price(self.caller(c, caller), price))

    @rule(caller=CALLERS, which=CONTRACTS, pct=st.sampled_from([99, 100, 150, 300, 10_000, 10_001]))
    def set_profit_margin(self, caller, which, pct):
        c = self.contracts[which]
        self.attempt(c, lambda: c.set_profit_margin(self.caller(c, caller), pct))

    @rule(caller=CALLERS, which=CONTRACTS, access=PCTS, renew=PCTS)
    def set_multis(self, caller, which, access, renew):
        c = self.contracts[which]
        self.attempt(c, lambda: c.set_multis(self.caller(c, caller), access, renew))

    @rule(pick=st.integers(0, 20), by_requester=st.booleans())
    def burn(self, pick, by_requester):
        tokens = list(self.store.tokens.values())
        if not tokens:
            return
        token = tokens[pick % len(tokens)]
        c = self.contract_at[token.dataset_address]
        cause = BurnCause.REQUESTER if by_requester else BurnCause.LICENSE_CHANGE
        self.attempt(c, lambda: burn_token(c, token, cause))

    @rule(pick=st.integers(0, 20), by_requester=st.booleans())
    def burn_through_another_contract(self, pick, by_requester):
        live = [(token, i) for i, c in enumerate(self.contracts) for token in c.holders.values()]
        if not live:
            return
        token, own = live[pick % len(live)]
        other = self.contracts[1 - own]
        if other.destroyed:
            return
        cause = BurnCause.REQUESTER if by_requester else BurnCause.LICENSE_CHANGE
        before = self.state()
        with pytest.raises(NoTokenError):
            burn_token(other, token, cause)
        assert self.state() == before

    @rule(caller=CALLERS, which=CONTRACTS)
    def withdraw(self, caller, which):
        c = self.contracts[which]
        self.attempt(c, lambda: c.withdraw(self.caller(c, caller)))

    @rule(caller=CALLERS, which=CONTRACTS)
    def destroy(self, caller, which):
        c = self.contracts[which]
        self.attempt(c, lambda: c.destroy(self.caller(c, caller)))

    @rule(periods=st.integers(1, 3))
    def advance(self, periods):
        self.chain.period += periods

    @invariant()
    def balances_match_their_replay(self):
        assert self.chain.conservation_holds()
        assert replay(self.chain)[0] == self.chain.accounts

    @invariant()
    def cost_ledgers_match_their_replay(self):
        # Destroyed and repriced contracts included: the receipts carry the contract and margin.
        replayed = replay(self.chain)[1]
        for c in self.contracts:
            actual = (c.current_cost_wei, c.provider_cost_wei, c.provider_earnings_wei)
            assert replayed[c.contract_address] == actual

    @invariant()
    def one_live_token_per_dataset_and_user(self):
        unburned = [t for t in self.store.tokens.values() if not t.burned]
        assert len({(t.dataset_address, t.user) for t in unburned}) == len(unburned)
        assert list(self.store.live_tokens()) == unburned
        for c in self.contracts:
            if not c.destroyed:
                mine = [(t.user, t) for t in unburned if t.dataset_address == c.contract_address]
                assert list(c.holders.items()) == mine

    @invariant()
    def renewals_wait_for_compliance(self):
        pending: set[int] = set()
        for event in self.store.events:
            if event.kind == "updateNotice":
                pending.add(event.token_id)
            elif event.kind == "complianceConfirmed":
                pending.discard(event.token_id)
            elif event.kind == "renewed":
                assert event.token_id not in pending
        for token in self.store.tokens.values():
            if not token.burned:
                assert token.compliance == (token.token_id not in pending)


ContractAPI.TestCase.settings = settings(max_examples=75, stateful_step_count=50, deadline=None)
TestContractAPI = ContractAPI.TestCase
