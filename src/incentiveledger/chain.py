"""Mock gas-metered ledger.

Models just enough of an account-based blockchain to price contract calls:
accounts hold integer wei balances, every metered call burns gas at a fixed
gas price, and fees drain into a miner sink account so that total system
value is conserved to the wei. There are no blocks, no nonces and no real
EVM; a call is priced by looking its function tag up in a gas schedule.
N identical calls book as one batch: one funds check, one receipt at N log positions.
A price keeps one gas int, one fee and one USD figure per gas amount: calls of equal gas share all three.

All arithmetic is integer wei. USD figures are derived for display only and
never feed back into balances.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator, Mapping

from .errors import (
    ConfigError,
    InsufficientFundsError,
    UnknownAccountError,
    UnknownFunctionError,
)

WEI_PER_ETH = 10**18
GWEI = 10**9

# Function tags double as gas-schedule keys and transaction-log labels.
DEPLOYMENT = "deployment"
PUBLISH_DATA = "publishData"
UPDATE_DATA = "updateData"
ADD_DATA_REQUESTER = "addDataRequester"
RENEW_TOKEN = "renewToken"
SET_LICENSE = "setLicense"
SET_REGISTRY_ADDRESS = "setRegistryAddress"
SET_PROFIT_MARGIN = "setProfitMargin"
SET_PRICE = "setPrice"
SET_MULTIS = "setMultis"
REGISTRY_DEPLOYMENT = "registryDeployment"
NEW_DATA_PROVIDER = "newDataProvider"
REGISTER_NEW_USER = "registerNewUser"
UPDATE_USER_LICENSE = "updateUserLicense"
CHECK_PROVIDER = "checkProvider"
CHECK_USER = "checkUser"

# Unmetered value movements still show up in the transaction log under
# these tags with zero gas.
DESTROY = "destroy"
WITHDRAW = "withdraw"


# An account is its id: "acct-0001", "dataset-01", "authority", "miner".
Address = str

NULL_ADDRESS = "0x0"
MINER_ADDRESS = "miner"
REPORT_BLOCK_ROWS = 2_048  # rows per text block of a report


def account_address(index: int) -> Address:
    return f"acct-{index:04d}"


@lru_cache(maxsize=1)
def account_addresses(n: int) -> tuple[Address, ...]:
    """The first n account addresses, built once per count, so that its callers share each string."""
    return tuple(map(account_address, range(n)))


def csv_text(header: str, rows: Iterable[str]) -> Iterator[str]:
    """The one line renderer of every report: yields the header line, then blocks of at most
    REPORT_BLOCK_ROWS rows, every line ending in LF, each built when it is asked for."""
    yield header + "\n"
    rows = iter(rows)
    while block := list(islice(rows, REPORT_BLOCK_ROWS)):
        yield "\n".join((*block, ""))


# Measured transaction gas of each contract function: what a caller is
# billed for, intrinsic transaction cost included.
_CORE_GAS: dict[str, int] = {
    DEPLOYMENT: 6_724_230,
    PUBLISH_DATA: 95_560,
    UPDATE_DATA: 43_799,
    ADD_DATA_REQUESTER: 475_067,
    RENEW_TOKEN: 45_211,
    SET_LICENSE: 39_339,
    SET_REGISTRY_ADDRESS: 37_131,
    SET_PROFIT_MARGIN: 35_091,
    SET_PRICE: 31_062,
}

_REGISTRY_GAS: dict[str, int] = {
    REGISTRY_DEPLOYMENT: 621_087,
    NEW_DATA_PROVIDER: 44_855,
    REGISTER_NEW_USER: 45_669,
    UPDATE_USER_LICENSE: 27_732,
    CHECK_PROVIDER: 23_991,
    CHECK_USER: 23_877,
}

# Marginal gas an update pays per active access token, calibrated so a
# dataset with 60 requesters prices an update near $64.30 while an empty
# one stays near $5.40 at the default gas price and exchange rate.
PER_REQUESTER_UPDATE_GAS = 7_943


@dataclass(frozen=True)
class GasSchedule:
    """Per-function transaction gas, plus the per-requester update premium."""

    transaction_gas: Mapping[str, int]
    per_requester_update_gas: int = PER_REQUESTER_UPDATE_GAS

    def __post_init__(self) -> None:
        per_requester = ("the per-requester update", self.per_requester_update_gas)
        for name, gas in (*self.transaction_gas.items(), per_requester):
            # bool is an int subclass; a JSON true must not pass as 1 gas.
            if type(gas) is not int or gas <= 0:
                raise ConfigError(f"gas for {name} must be a positive integer, got {gas!r}")

    def gas_for(self, function: str) -> int:
        try:
            return self.transaction_gas[function]
        except KeyError:
            raise UnknownFunctionError(f"no gas entry for {function!r}") from None


def default_gas_schedule() -> GasSchedule:
    # setMultis has no measured row; it is a one-word setter like
    # setProfitMargin, so it borrows that measurement by default.
    return GasSchedule(transaction_gas=_CORE_GAS | _REGISTRY_GAS | {SET_MULTIS: _CORE_GAS[SET_PROFIT_MARGIN]})


@dataclass(frozen=True)
class PriceModel:
    """Fixed gas price and exchange rate for a whole run.

    A fractional gas price (the CLI passes gwei * GWEI as a float) rounds
    to whole wei, because fees are integer wei.
    """

    gas_price_wei: int = 72 * GWEI
    eth_usd: float = 1716.52
    # gas -> (that gas, its fee, the fee's USD figure): filled by fee_and_usd, never stale, since the price is frozen.
    _fees: dict[int, tuple[int, int, float]] = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        gas_price = self.gas_price_wei  # bool is an int subclass; a JSON true must not pass as 1 wei
        if isinstance(gas_price, bool) or not (0 < gas_price < math.inf and round(gas_price) > 0):
            raise ConfigError(f"gas price must be finite and at least 1 wei, got {self.gas_price_wei!r} wei")
        object.__setattr__(self, "gas_price_wei", round(gas_price))
        if isinstance(self.eth_usd, bool) or not 0 < self.eth_usd < math.inf:
            raise ConfigError(f"exchange rate must be positive and finite, got {self.eth_usd!r}")

    def fee_wei(self, gas: int) -> int:
        return gas * self.gas_price_wei

    def wei_to_usd(self, wei: int) -> float:
        # Half-up to cents, display only; balances stay integer wei.
        cents = wei / WEI_PER_ETH * self.eth_usd * 100
        return (int(cents + 0.5) if cents >= 0 else -int(0.5 - cents)) / 100

    def fee_and_usd(self, gas: int) -> tuple[int, int, float]:
        """An equal gas int, the fee of gas and its USD figure, built once per gas amount and then shared."""
        try:
            return self._fees[gas]
        except KeyError:
            entry = self._fees[gas] = (gas, fee := self.fee_wei(gas), self.wei_to_usd(fee))
            return entry


@dataclass(slots=True)
class TxReceipt:
    period: int
    caller: Address
    function: str
    gas_used: int
    gas_fee_wei: int
    value_wei: int
    recipient: Address | None
    usd_cost: float
    # The booking dataset contract, and an owner call's margin; not in transactions.csv.
    contract: Address | None = None
    margin_pct: int | None = None


@dataclass(slots=True, eq=False, repr=False)
class ChainState:
    """Account balances, miner sink and the append-only transaction log."""

    schedule: GasSchedule = field(default_factory=default_gas_schedule)
    price: PriceModel = field(default_factory=PriceModel)
    accounts: dict[Address, int] = field(init=False, default_factory=lambda: {MINER_ADDRESS: 0})
    # Wei minted onto each account at creation; receipts only ever move
    # this money around, which is what reconciliation replays.
    funding: dict[Address, int] = field(init=False, default_factory=lambda: {MINER_ADDRESS: 0})
    receipts: list[TxReceipt] = field(init=False, default_factory=list)
    period: int = field(init=False, default=0)
    _account_seq: int = field(init=False, default=0)
    _contract_seq: int = field(init=False, default=0)
    # A prefix of the receipt log and its transactions.csv text, less the final newline.
    _formatted: tuple[list[TxReceipt], str] = field(init=False, default=([], ""))

    def fork(self) -> ChainState:
        """A copy to run on independently. It shares the receipt objects,
        which are never mutated, and their transactions.csv text."""
        if len(self._formatted[0]) != len(self.receipts):
            self._formatted = (self.receipts[:], "".join(self.log_csv())[:-1])
        other = copy.copy(self)
        other.accounts, other.funding, other.receipts = dict(self.accounts), dict(self.funding), self.receipts[:]
        return other

    def create_accounts(self, n: int, prefund_wei: int) -> list[Address]:
        if n < 1:
            raise ValueError("need at least one account")
        if prefund_wei < 0:
            raise ValueError("prefund cannot be negative")
        created = list(account_addresses(self._account_seq + n)[self._account_seq:])
        if not self.accounts.keys().isdisjoint(created):
            raise ValueError(f"account {next(a for a in created if a in self.accounts)} already exists")
        self._account_seq += n
        self.accounts.update(dict.fromkeys(created, prefund_wei))
        self.funding.update(dict.fromkeys(created, prefund_wei))
        return created

    def create_named_account(self, addr: Address, prefund_wei: int = 0) -> Address:
        if addr in self.accounts:
            raise ValueError(f"account {addr} already exists")
        self.accounts[addr] = prefund_wei
        self.funding[addr] = prefund_wei
        return addr

    def next_contract_address(self) -> Address:
        self._contract_seq += 1
        return self.create_named_account(f"dataset-{self._contract_seq:02d}")

    def balance(self, addr: Address) -> int:
        try:
            return self.accounts[addr]
        except KeyError:
            raise UnknownAccountError(f"no account {addr}") from None

    def total_wei(self) -> int:
        return sum(self.accounts.values())

    def conservation_holds(self) -> bool:
        # Every wei ever minted is still on some account, miner included.
        return self.total_wei() == sum(self.funding.values())

    def execute(
        self,
        caller: Address,
        function: str,
        extra_gas: int = 0,
        value_wei: int = 0,
        recipient: Address | None = None,
        contract: Address | None = None,
        margin_pct: int | None = None,
        count: int = 1,
    ) -> TxReceipt:
        """Run count identical metered calls: bill gas to the caller, move value; return the first receipt.

        Rejection is atomic: calls that cannot all be paid for leave every
        balance untouched and consume no gas.
        """
        if extra_gas < 0 or value_wei < 0 or count < 1:
            raise ValueError("extra gas and value cannot be negative, and count must be at least 1")
        if value_wei > 0 and recipient is None:
            raise ValueError("value transfer needs a recipient")
        return self._move(caller, function, self.schedule.gas_for(function) + extra_gas, value_wei, recipient,
                          contract, margin_pct, count)

    def transfer(self, source: Address, recipient: Address, value_wei: int, tag: str) -> TxReceipt:
        """Unmetered value movement (contract payouts); logged with zero gas."""
        if value_wei < 0:
            raise ValueError("value cannot be negative")
        if recipient is None:
            raise UnknownAccountError(f"{tag} needs a recipient")
        return self._move(source, tag, 0, value_wei, recipient)

    def _move(self, caller: Address, function: str, gas: int, value_wei: int, recipient: Address | None,
              contract: Address | None = None, margin_pct: int | None = None, count: int = 1) -> TxReceipt:
        """The one value-moving path, atomic: bill gas and move value for count calls; log one receipt for all."""
        gas, fee, usd = self.price.fee_and_usd(gas)  # the memo's gas int: receipts share one per amount
        fees, values = fee, value_wei
        if count != 1:  # a batch; a single call skips the two big-int products
            fees, values = fee * count, value_wei * count
        try:
            caller_balance = self.accounts[caller]
        except KeyError:
            raise UnknownAccountError(f"no account {caller}") from None
        if recipient is not None and recipient not in self.accounts:  # it must exist before any debit
            raise UnknownAccountError(f"no account {recipient}")
        if caller_balance < fees + values:
            raise InsufficientFundsError(f"{caller} holds {caller_balance} wei, needs {fees + values} for {function}")
        self.accounts[caller] = caller_balance - fees - values
        self.accounts[MINER_ADDRESS] += fees
        if recipient is not None:
            self.accounts[recipient] += values
        # Positional: on this hot path the keyword form cost twice as much.
        receipt = TxReceipt(self.period, caller, function, gas, fee, value_wei, recipient,
                            self.price.wei_to_usd(fee + value_wei) if value_wei else usd, contract, margin_pct)
        self.receipts.extend((receipt,) * count)  # one object at count positions
        return receipt

    def log_csv(self) -> Iterator[str]:
        done, head = self._formatted
        if not done or self.receipts[: len(done)] != done:
            done, head = [], "index,period,caller,function,gasUsed,gasFeeWei,valueWei,recipient,usdCost"
        return csv_text(head, self._rows(len(done)))

    def _rows(self, start: int) -> Iterator[str]:
        """Rows from position start on, numbered by position; a receipt at consecutive positions is formatted once."""
        last = tail = None
        for index, r in enumerate(islice(self.receipts, start, None), start):
            if r is not last:
                last, tail = r, (f"{r.period},{r.caller},{r.function},{r.gas_used},"
                                 f"{r.gas_fee_wei},{r.value_wei},{r.recipient or ''},{r.usd_cost:.2f}")
            yield f"{index},{tail}"
