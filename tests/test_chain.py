"""Ledger mechanics: golden fee table, atomicity, conservation."""

from __future__ import annotations

import math
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import report_text

from incentiveledger.chain import (
    ADD_DATA_REQUESTER,
    CHECK_PROVIDER,
    CHECK_USER,
    DEPLOYMENT,
    GWEI,
    MINER_ADDRESS,
    NEW_DATA_PROVIDER,
    PER_REQUESTER_UPDATE_GAS,
    PUBLISH_DATA,
    REGISTER_NEW_USER,
    REGISTRY_DEPLOYMENT,
    RENEW_TOKEN,
    SET_LICENSE,
    SET_MULTIS,
    SET_PRICE,
    SET_PROFIT_MARGIN,
    SET_REGISTRY_ADDRESS,
    UPDATE_DATA,
    UPDATE_USER_LICENSE,
    WEI_PER_ETH,
    ChainState,
    GasSchedule,
    PriceModel,
    default_gas_schedule,
)
from incentiveledger.errors import (
    ConfigError,
    InsufficientFundsError,
    UnknownAccountError,
    UnknownFunctionError,
)

# Published per-call costs at 72 Gwei and $1716.52/ETH: ether printed to
# five decimals (half-up), dollars to cents.
FEE_TABLE = [
    (DEPLOYMENT, "0.48414", 831.03),
    (PUBLISH_DATA, "0.00688", 11.80),
    (UPDATE_DATA, "0.00315", 5.40),
    (ADD_DATA_REQUESTER, "0.03420", 58.70),
    (RENEW_TOKEN, "0.00326", 5.59),
    (SET_LICENSE, "0.00283", 4.85),
    (SET_REGISTRY_ADDRESS, "0.00267", 4.58),
    (SET_PROFIT_MARGIN, "0.00253", 4.34),
    (SET_PRICE, "0.00224", 3.84),
    (REGISTRY_DEPLOYMENT, "0.04472", 76.76),
    (NEW_DATA_PROVIDER, "0.00323", 5.54),
    (REGISTER_NEW_USER, "0.00329", 5.64),
    (UPDATE_USER_LICENSE, "0.00200", 3.43),
    (CHECK_PROVIDER, "0.00173", 2.96),
    (CHECK_USER, "0.00172", 2.95),
]


def eth_5dp_units(wei: int) -> int:
    # Half-up rounding to 1e-5 ETH done entirely in integers.
    return (wei + 5 * 10**12) // 10**13


@pytest.mark.parametrize("function,eth_str,usd", FEE_TABLE, ids=[row[0] for row in FEE_TABLE])
def test_fee_matches_published_ether(function, eth_str, usd):
    price = PriceModel()
    fee = price.fee_wei(default_gas_schedule().gas_for(function))
    assert eth_5dp_units(fee) == int(Decimal(eth_str) * 10**5)


@pytest.mark.parametrize("function,eth_str,usd", FEE_TABLE, ids=[row[0] for row in FEE_TABLE])
def test_fee_matches_published_usd(function, eth_str, usd):
    price = PriceModel()
    fee = price.fee_wei(default_gas_schedule().gas_for(function))
    assert price.wei_to_usd(fee) == pytest.approx(usd, abs=0.02)


def test_set_multis_borrows_one_word_setter_gas():
    schedule = default_gas_schedule()
    assert schedule.gas_for(SET_MULTIS) == schedule.gas_for(SET_PROFIT_MARGIN)


def test_per_requester_gas_backs_out_of_update_prices():
    # Marginal USD per requester between a 60-token update and an empty one,
    # divided by the USD price of one gas unit.
    usd_per_gas = 72 * 1716.52 * 1e-9
    assert round(((64.30 - 5.40) / 60) / usd_per_gas) == PER_REQUESTER_UPDATE_GAS


def test_execute_moves_fee_to_miner_and_value_to_recipient(chain):
    caller = chain.create_named_account("caller", 10 * WEI_PER_ETH)
    vendor = chain.create_named_account("vendor", 0)
    fee = chain.price.fee_wei(chain.schedule.gas_for(CHECK_USER))
    receipt = chain.execute(caller, CHECK_USER, value_wei=123, recipient=vendor)
    assert chain.balance(caller) == 10 * WEI_PER_ETH - fee - 123
    assert chain.balance(vendor) == 123
    assert chain.balance(MINER_ADDRESS) == fee
    assert receipt.gas_fee_wei == fee
    assert receipt.gas_used == chain.schedule.gas_for(CHECK_USER)
    assert receipt.value_wei == 123
    assert receipt.function == CHECK_USER
    assert len(chain.receipts) == 1 and chain.receipts[0] is receipt  # its number is its position, 0


def test_execute_extra_gas_is_billed(chain):
    caller = chain.create_named_account("caller", 10 * WEI_PER_ETH)
    base = chain.execute(caller, UPDATE_DATA).gas_fee_wei
    extra = chain.execute(caller, UPDATE_DATA, extra_gas=1_000).gas_fee_wei
    assert extra - base == 1_000 * chain.price.gas_price_wei


def test_value_free_calls_of_equal_gas_share_one_fee_and_one_usd_figure(chain):
    caller = chain.create_named_account("caller", 10 * WEI_PER_ETH)
    vendor = chain.create_named_account("vendor", 0)
    # Each call computes its own extra gas, as an update does from its holder count.
    first, second = (chain.execute(caller, UPDATE_DATA, extra_gas=3 * PER_REQUESTER_UPDATE_GAS) for _ in range(2))
    assert first is not second
    assert first.gas_fee_wei is second.gas_fee_wei and first.usd_cost is second.usd_cost
    assert first.gas_used is second.gas_used
    paid = chain.execute(caller, UPDATE_DATA, extra_gas=3 * PER_REQUESTER_UPDATE_GAS,
                         value_wei=10**16, recipient=vendor)
    assert paid.gas_fee_wei is first.gas_fee_wei
    assert paid.usd_cost == chain.price.wei_to_usd(first.gas_fee_wei + 10**16) != first.usd_cost
    other = chain.fork()  # the fork keeps the price, and with it each fee object
    forked = other.execute(caller, UPDATE_DATA, extra_gas=3 * PER_REQUESTER_UPDATE_GAS)
    assert forked.gas_fee_wei is first.gas_fee_wei and forked.usd_cost is first.usd_cost


def test_each_price_keeps_its_own_fees():
    gas = default_gas_schedule().gas_for(CHECK_USER)
    cheap, dear = PriceModel(gas_price_wei=GWEI), PriceModel(gas_price_wei=2 * GWEI, eth_usd=3_000.0)
    for price in (cheap, dear, cheap):
        own_gas, fee, usd = price.fee_and_usd(gas)
        assert (own_gas, fee, usd) == (gas, price.fee_wei(gas), price.wei_to_usd(price.fee_wei(gas)))
    assert cheap.fee_and_usd(gas)[1] is cheap.fee_and_usd(gas)[1]
    assert cheap == PriceModel(gas_price_wei=GWEI) and hash(cheap) == hash(PriceModel(gas_price_wei=GWEI))


def test_rejected_call_is_atomic_and_burns_no_gas(chain):
    poor = chain.create_named_account("poor", 10)
    vendor = chain.create_named_account("vendor", 7)
    before = dict(chain.accounts)
    with pytest.raises(InsufficientFundsError):
        chain.execute(poor, CHECK_USER, value_wei=5, recipient=vendor)
    assert chain.accounts == before
    assert chain.receipts == []


def test_a_caller_can_spend_exactly_its_balance(chain):
    fee = chain.price.fee_wei(chain.schedule.gas_for(CHECK_USER))
    vendor = chain.create_named_account("vendor", 0)
    short = chain.create_named_account("short", fee + 99)
    with pytest.raises(InsufficientFundsError):
        chain.execute(short, CHECK_USER, value_wei=100, recipient=vendor)
    assert chain.receipts == [] and chain.balance(short) == fee + 99
    exact = chain.create_named_account("exact", fee + 100)
    chain.execute(exact, CHECK_USER, value_wei=100, recipient=vendor)
    assert chain.balance(exact) == 0 and chain.balance(vendor) == 100
    assert len(chain.receipts) == 1


def test_unknown_recipient_rejected_before_any_debit(chain):
    from incentiveledger.chain import Address

    caller = chain.create_named_account("caller", 10 * WEI_PER_ETH)
    with pytest.raises(UnknownAccountError):
        chain.execute(caller, CHECK_USER, value_wei=1, recipient=Address("ghost"))
    assert chain.balance(caller) == 10 * WEI_PER_ETH
    assert chain.receipts == []


def test_unknown_caller_is_rejected_without_effect(chain):
    vendor = chain.create_named_account("vendor", 7)
    before = dict(chain.accounts)
    with pytest.raises(UnknownAccountError):
        chain.execute("ghost", CHECK_USER)
    with pytest.raises(UnknownAccountError):
        chain.execute("ghost", CHECK_USER, value_wei=1, recipient=vendor)
    assert chain.accounts == before
    assert chain.receipts == []


@pytest.mark.parametrize("unknown", ["source", "recipient"])
def test_transfer_to_or_from_an_unknown_account_has_no_effect(chain, unknown):
    known = chain.create_named_account("known", 100)
    source, recipient = ("ghost", known) if unknown == "source" else (known, "ghost")
    before = dict(chain.accounts)
    with pytest.raises(UnknownAccountError):
        chain.transfer(source, recipient, 60, "withdraw")
    assert chain.accounts == before
    assert chain.receipts == []


def test_execute_argument_validation(chain):
    caller = chain.create_named_account("caller", WEI_PER_ETH)
    with pytest.raises(ValueError):
        chain.execute(caller, CHECK_USER, extra_gas=-1)
    with pytest.raises(ValueError):
        chain.execute(caller, CHECK_USER, value_wei=-1)
    with pytest.raises(ValueError):
        chain.execute(caller, CHECK_USER, value_wei=1)  # no recipient
    with pytest.raises(UnknownFunctionError):
        chain.execute(caller, "mintUnicorn")
    # A negative value is refused before the function's gas is looked up.
    with pytest.raises(ValueError):
        chain.execute(caller, "mintUnicorn", value_wei=-1)
    assert chain.receipts == []


def test_transfer_never_drops_value_without_a_recipient(chain):
    a = chain.create_named_account("a", 100)
    before = dict(chain.accounts)
    with pytest.raises(UnknownAccountError):
        chain.transfer(a, None, 1, "withdraw")
    assert chain.accounts == before
    assert chain.receipts == []


@pytest.mark.parametrize("tag", ["withdraw", "destroy"])
def test_a_short_transfer_names_its_tag(chain, tag):
    a = chain.create_named_account("a", 40)
    b = chain.create_named_account("b", 0)
    with pytest.raises(InsufficientFundsError, match=f"a holds 40 wei, needs 41 for {tag}$"):
        chain.transfer(a, b, 41, tag)
    assert (chain.balance(a), chain.balance(b)) == (40, 0)
    assert chain.receipts == []


def test_transfer_moves_value_without_gas(chain):
    a = chain.create_named_account("a", 100)
    b = chain.create_named_account("b", 0)
    receipt = chain.transfer(a, b, 60, "withdraw")
    assert (chain.balance(a), chain.balance(b)) == (40, 60)
    assert receipt.gas_used == 0 and receipt.gas_fee_wei == 0
    assert chain.balance(MINER_ADDRESS) == 0
    with pytest.raises(InsufficientFundsError):
        chain.transfer(a, b, 41, "withdraw")
    with pytest.raises(ValueError):
        chain.transfer(a, b, -1, "withdraw")


def test_account_creation_rules(chain):
    with pytest.raises(ValueError):
        chain.create_accounts(0, 1)
    with pytest.raises(ValueError):
        chain.create_accounts(1, -1)
    addrs = chain.create_accounts(3, 50)
    assert len(set(addrs)) == 3
    assert sum(chain.funding.values()) == 150
    assert all(chain.funding[a] == 50 for a in addrs)
    [unfunded] = chain.create_accounts(1, 0)  # one account, and a prefund of zero, are allowed
    assert chain.balance(unfunded) == chain.funding[unfunded] == 0
    with pytest.raises(ValueError):
        chain.create_named_account(addrs[0], 0)
    with pytest.raises(UnknownAccountError):
        chain.balance(__import__("incentiveledger").chain.Address("nope"))


def test_account_creation_is_all_or_none(chain):
    chain.create_named_account("acct-0001", 7)
    before = (dict(chain.accounts), dict(chain.funding))
    with pytest.raises(ValueError, match="account acct-0001 already exists"):
        chain.create_accounts(3, 50)
    assert (chain.accounts, chain.funding) == before


def test_usd_display_rounds_half_up_in_both_signs():
    price = PriceModel(gas_price_wei=1, eth_usd=1.0)
    assert price.wei_to_usd(5 * 10**15) == 0.01  # exactly half a cent
    assert price.wei_to_usd(-5 * 10**15) == -0.01
    assert price.wei_to_usd(4_990_000_000_000_000) == 0.0  # just below it
    assert price.wei_to_usd(0) == 0.0


def usd_oracle(price: PriceModel, wei: int) -> float:
    """The USD rule as first written, kept as the oracle of PriceModel.wei_to_usd."""
    raw = wei / WEI_PER_ETH * price.eth_usd
    cents = int(abs(raw) * 100 + 0.5)
    return (cents if raw >= 0 else -cents) / 100


HALF_CENT_WEI = 5 * 10**15  # exactly half a cent at $1/ETH


@settings(max_examples=400, deadline=None)
@given(
    wei=st.one_of(
        st.integers(min_value=-10**25, max_value=10**25),
        st.integers(min_value=-10**6, max_value=10**6).map(lambda k: (2 * k + 1) * HALF_CENT_WEI),
        st.sampled_from([0, -0.0, HALF_CENT_WEI, -HALF_CENT_WEI]),
    ),
    eth_usd=st.one_of(st.sampled_from([1.0, 1716.52, 0.37, 3127.9]), st.floats(min_value=1e-3, max_value=1e5)),
)
@example(wei=HALF_CENT_WEI, eth_usd=1.0)
@example(wei=-HALF_CENT_WEI, eth_usd=1.0)
@example(wei=-0.0, eth_usd=1.0)
def test_usd_rule_matches_its_oracle_bit_for_bit(wei, eth_usd):
    price = PriceModel(gas_price_wei=1, eth_usd=eth_usd)
    assert price.wei_to_usd(wei).hex() == usd_oracle(price, wei).hex()


def test_price_and_schedule_validation():
    with pytest.raises(ValueError):
        PriceModel(gas_price_wei=0)
    with pytest.raises(ValueError):
        PriceModel(eth_usd=0)
    with pytest.raises(ConfigError, match="gas price"):
        PriceModel(gas_price_wei=math.inf)
    with pytest.raises(ConfigError, match="exchange rate"):
        PriceModel(eth_usd=math.inf)
    with pytest.raises(ValueError):
        GasSchedule(transaction_gas={"f": 0})
    with pytest.raises(ValueError):
        GasSchedule(transaction_gas={"f": 1}, per_requester_update_gas=0)
    with pytest.raises(UnknownFunctionError):
        GasSchedule(transaction_gas={"f": 1}).gas_for("g")


def test_log_csv_shape(chain):
    caller = chain.create_named_account("caller", WEI_PER_ETH)
    chain.execute(caller, CHECK_USER)
    lines = report_text(chain.log_csv()).splitlines()
    assert lines[0] == "index,period,caller,function,gasUsed,gasFeeWei,valueWei,recipient,usdCost"
    assert lines[1].startswith(f"0,0,caller,{CHECK_USER},")
    assert len(lines) == 2


def test_a_fork_and_its_parent_format_their_shared_log_once(chain):
    # fork() formats the receipt log once for both copies, so neither
    # copy's log_csv formats a shared receipt again.
    caller = chain.create_named_account("caller", WEI_PER_ETH)
    formatted = []

    class Usd(float):
        def __format__(self, spec):
            formatted.append(self)
            return float.__format__(self, spec)

    for _ in range(3):
        receipt = chain.execute(caller, CHECK_USER)
        receipt.usd_cost = Usd(receipt.usd_cost)
    other = chain.fork()
    other.execute(caller, CHECK_USER)
    mine, theirs = report_text(chain.log_csv()), report_text(other.log_csv())
    assert len(formatted) == 3
    assert theirs.startswith(mine) and len(theirs.splitlines()) == len(mine.splitlines()) + 1


@settings(max_examples=60, deadline=None)
@given(
    prefunds=st.lists(st.integers(min_value=0, max_value=10**18), min_size=2, max_size=6),
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),  # caller slot
            st.integers(min_value=0, max_value=5),  # recipient slot
            st.integers(min_value=0, max_value=10**17),  # value
            st.booleans(),  # metered call vs free transfer
        ),
        max_size=30,
    ),
)
def test_value_is_conserved_under_any_op_sequence(prefunds, ops):
    chain = ChainState()
    accounts = [chain.create_named_account(f"h{i}", wei) for i, wei in enumerate(prefunds)]
    for caller_i, recipient_i, value, metered in ops:
        caller = accounts[caller_i % len(accounts)]
        recipient = accounts[recipient_i % len(accounts)]
        try:
            if metered:
                chain.execute(caller, CHECK_USER, value_wei=value, recipient=recipient)
            else:
                chain.transfer(caller, recipient, value, "withdraw")
        except InsufficientFundsError:
            pass
        assert chain.conservation_holds()
        assert all(balance >= 0 for balance in chain.accounts.values())
    # The log replays to the same flow of wei out of funded accounts.
    spent = sum(r.gas_fee_wei for r in chain.receipts)
    assert chain.balance(MINER_ADDRESS) == spent
