"""reporting.replay against the straightforward replay it replaced.

reference_replay below is that replay, kept as the oracle: one dict update
per balance and per fee, books made by setdefault and the pool floored by
max(). The library's replay must return the same 4-tuple, or raise the same
ReconciliationFailureError text, on real runs and on hand-built logs.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import golden_config
from incentiveledger import ChainState, DatasetContract, DEFAULT_LICENSE, PopulationConfig, Scenario, SimConfig
from incentiveledger import quote_payment, request_access, run_simulation
from incentiveledger.chain import DESTROY, MINER_ADDRESS, RENEW_TOKEN, UPDATE_DATA, WITHDRAW, TxReceipt
from incentiveledger.errors import ReconciliationFailureError
from incentiveledger.reporting import ACCRUING_FUNCTIONS, replay


def reference_replay(chain: ChainState):
    balances, ledgers, retired, payouts = dict(chain.funding), {}, 0, {}
    for index, r in enumerate(chain.receipts):
        balances[r.caller] -= r.gas_fee_wei + r.value_wei
        balances[MINER_ADDRESS] += r.gas_fee_wei
        if r.recipient is not None:
            balances[r.recipient] += r.value_wei
        if balances[r.caller] < 0:
            raise ReconciliationFailureError(f"receipt {index} drives {r.caller} to {balances[r.caller]} wei")
        if r.contract is not None:
            books = ledgers.setdefault(r.contract, [0, 0, 0])
            if r.function in ACCRUING_FUNCTIONS:
                books[0] += r.gas_fee_wei * r.margin_pct // 100
                books[1] += r.gas_fee_wei
            else:
                books[0] = max(0, books[0] - r.value_wei)
                books[2] += r.value_wei
        elif r.caller in ledgers:
            payouts[r.recipient] = payouts.get(r.recipient, 0) + r.value_wei
            if r.function == DESTROY:
                retired += ledgers[r.caller][2]
                ledgers[r.caller] = [0, 0, 0]
    return balances, {addr: tuple(v) for addr, v in ledgers.items()}, retired, payouts


def outcome(replayer, chain: ChainState):
    """What a replay returns, or the text of the reconciliation failure it raises."""
    try:
        return replayer(chain)
    except ReconciliationFailureError as exc:
        return str(exc)


def assert_same(chain: ChainState):
    expected = outcome(reference_replay, chain)
    assert outcome(replay, chain) == expected
    return expected


REAL_RUNS = {  # four golden direct runs, and a run of scenario 1 and of scenario 3 that no golden tree pins
    **{name: golden_config(name) for name in ("default", "renewal-heavy", "scale-20k", "update-heavy")},
    "no-compensation": SimConfig(scenario=Scenario.NO_COMPENSATION, seed=3),
    "profit": SimConfig(scenario=Scenario.PROFIT, access_fraction_pct=25, seed=2,
                        population=PopulationConfig(max_providers=2)),
}


@pytest.mark.parametrize("name", REAL_RUNS)
def test_a_real_run_replays_as_the_reference_does(name):
    chain = run_simulation(REAL_RUNS[name]).chain
    balances, ledgers, _, _ = assert_same(chain)
    assert balances == chain.accounts and ledgers


def log(funding: dict[str, int], *receipts: TxReceipt) -> ChainState:
    chain = ChainState()
    chain.accounts[MINER_ADDRESS] = chain.funding[MINER_ADDRESS] = funding.pop(MINER_ADDRESS, 0)
    for addr, wei in funding.items():
        chain.create_named_account(addr, wei)
    chain.receipts += receipts
    return chain


def receipt(caller, function=UPDATE_DATA, fee=0, value=0, recipient=None, contract=None, margin=None):
    return TxReceipt(0, caller, function, 1, fee, value, recipient, 0.0, contract, margin)


def test_a_dip_at_the_first_receipt():
    chain = log({"a": 5}, receipt("a", fee=6))
    assert assert_same(chain) == "receipt 0 drives a to -1 wei"


def test_a_caller_paying_itself_is_checked_after_its_own_credit():
    # The caller cannot fund fee and value together, but the value comes straight back.
    chain = log({"a": 10}, receipt("a", RENEW_TOKEN, fee=4, value=9, recipient="a"))
    assert assert_same(chain)[0] == {MINER_ADDRESS: 4, "a": 6}
    assert assert_same(log({"a": 3}, receipt("a", RENEW_TOKEN, fee=4, value=9, recipient="a"))) == \
        "receipt 0 drives a to -1 wei"


def test_a_paying_miner_spends_the_fees_it_took():
    take = receipt("a", fee=10)
    chain = log({"a": 10, "b": 0}, take, receipt(MINER_ADDRESS, WITHDRAW, value=7, recipient="b"))
    assert assert_same(chain)[0] == {MINER_ADDRESS: 3, "a": 0, "b": 7}
    chain = log({"a": 10, "b": 0}, take, receipt(MINER_ADDRESS, WITHDRAW, value=11, recipient="b"))
    assert assert_same(chain) == "receipt 1 drives miner to -1 wei"


def test_a_contract_first_named_mid_log_starts_from_empty_books():
    chain = log({"a": 100, "dataset-01": 0, "dataset-02": 0},
                receipt("a", fee=5, contract="dataset-01", margin=100),
                receipt("a", RENEW_TOKEN, fee=1, value=9, recipient="dataset-02", contract="dataset-02"),
                receipt("a", fee=8, contract="dataset-02", margin=150),
                receipt("a", RENEW_TOKEN, fee=1, value=3, recipient="dataset-02", contract="dataset-02"))
    assert assert_same(chain)[1] == {"dataset-01": (5, 5, 0), "dataset-02": (9, 8, 12)}


@pytest.mark.parametrize("payout", ["withdraw", "destroy"])
def test_a_contract_payout(market, payout):
    c = DatasetContract.deploy_and_publish(market.chain, market.registry, market.provider, link="data://unit/1",
                                           required_license=DEFAULT_LICENSE, scenario=Scenario.COST_RECOVERY)
    c.update_data(market.provider)
    request_access(market.users[0], c, quote_payment(c, "access"))
    getattr(c, payout)(market.provider)
    _, ledgers, retired, payouts = assert_same(market.chain)
    assert payouts[market.provider] > 0
    assert (ledgers[c.contract_address] == (0, 0, 0) and retired > 0) if payout == "destroy" else retired == 0


ACCOUNTS = ["a", "b", MINER_ADDRESS, "dataset-01", "dataset-02"]
receipts = st.builds(
    receipt, caller=st.sampled_from(ACCOUNTS), function=st.sampled_from([UPDATE_DATA, RENEW_TOKEN, WITHDRAW, DESTROY]),
    fee=st.integers(0, 20), value=st.integers(0, 20), recipient=st.sampled_from([None, *ACCOUNTS]),
    contract=st.sampled_from([None, "dataset-01", "dataset-02"]), margin=st.integers(0, 300))


@given(funding=st.lists(st.integers(0, 40), min_size=5, max_size=5),
       steps=st.lists(st.tuples(receipts, st.integers(1, 3)), max_size=12))
def test_any_hand_built_log_replays_as_the_reference_does(funding, steps):
    """Random logs over two agents, the miner and two contracts, a receipt repeated at up to three
    consecutive positions as a batch logs it: the same result or the same error line."""
    assert_same(log(dict(zip(ACCOUNTS, funding)), *(r for r, count in steps for _ in range(count))))
