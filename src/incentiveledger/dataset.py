"""Dataset contract: publication, updates and cost accounting.

One contract per published dataset, and the one place its books move.
`bill` meters an owner call and feeds its gas cost to the compensation
ledger: the provider's pure outlay goes to providerCostWei while
currentCostWei accrues the same gas scaled by the profit margin, the pool
that `collect` drains by each access or renewal payment it takes into the
contract's account. `update_data` also publishes a version. Three
compensation modes share the bookkeeping:

  scenario 1  costs are tracked but requesters are never charged,
  scenario 2  margin is 100%, payments recoup costs and nothing more,
  scenario 3  margin exceeds 100%, payments eventually return a profit.

Update calls grow linearly with the number of live tokens, the contract's
holders, because each holder must be notified, and `update_data` prices
that per holder: this makes a popular dataset expensive to maintain and
is the core quantity the simulation measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .chain import (
    Address,
    ChainState,
    DEPLOYMENT,
    DESTROY,
    PUBLISH_DATA,
    SET_LICENSE,
    SET_MULTIS,
    SET_PRICE,
    SET_PROFIT_MARGIN,
    SET_REGISTRY_ADDRESS,
    TxReceipt,
    UPDATE_DATA,
    WITHDRAW,
)
from .errors import (
    AlreadyDestroyedError,
    DestroyedError,
    InsufficientFundsError,
    NotOwnerError,
    NotProviderError,
    OutOfRangeError,
)
from .registry import Registry
from .tokens import AccessToken, BurnCause, TokenStore, burn_token


class Scenario(Enum):
    NO_COMPENSATION = 1
    COST_RECOVERY = 2
    PROFIT = 3


# Inclusive bounds the contract puts on its percentage parameters.
MARGIN_PCT = (100, 10_000)
FRACTION_PCT = (1, 100)
_NO_COMPENSATION = Scenario.NO_COMPENSATION  # bound once: reading an Enum member off its class is slow


def check_pct(name: str, value: int, bounds: tuple[int, int], error: type[Exception] = OutOfRangeError) -> None:
    minimum, maximum = bounds
    if type(value) is not int or not minimum <= value <= maximum:  # bool is an int subclass
        raise error(f"{name} must be an integer in [{minimum}, {maximum}], got {value!r}")


@dataclass(slots=True, eq=False, repr=False)
class DatasetContract:
    chain: ChainState
    registry: Registry
    owner: Address
    contract_address: Address
    link: str
    required_license: int
    scenario: Scenario
    profit_margin_pct: int
    access_fraction_pct: int
    renew_fraction_pct: int
    token_store: TokenStore
    destroyed: bool = field(init=False, default=False)
    meta_version: int = field(init=False, default=0)
    price_wei: int = field(init=False, default=0)
    current_cost_wei: int = field(init=False, default=0)
    provider_cost_wei: int = field(init=False, default=0)
    provider_earnings_wei: int = field(init=False, default=0)
    # Each holder's live token, in mint order, which is token-id order.
    holders: dict[Address, AccessToken] = field(init=False, default_factory=dict)

    @classmethod
    def deploy_and_publish(
        cls,
        chain: ChainState,
        registry: Registry,
        provider: Address,
        link: str,
        required_license: int,
        scenario: Scenario,
        profit_margin_pct: int = 100,
        access_fraction_pct: int = 5,
        renew_fraction_pct: int = 5,
        token_store: TokenStore | None = None,
    ) -> "DatasetContract":
        """Deploy the contract and publish the dataset in one step.

        Both transactions accrue into the compensation pool: publication is
        the provider's initial investment that early requesters help repay.
        The step is atomic, so a contract is live from birth until `destroy`.
        """
        if not registry.check_provider(provider):
            raise NotProviderError(f"{provider} is not an approved provider")
        check_pct("profit margin", profit_margin_pct, MARGIN_PCT)
        check_pct("access fraction", access_fraction_pct, FRACTION_PCT)
        check_pct("renew fraction", renew_fraction_pct, FRACTION_PCT)
        deploy_fee = chain.price.fee_wei(chain.schedule.gas_for(DEPLOYMENT))
        publish_fee = chain.price.fee_wei(chain.schedule.gas_for(PUBLISH_DATA))
        if chain.balance(provider) < deploy_fee + publish_fee:
            raise InsufficientFundsError(f"{provider} cannot afford deployment and publication")
        contract = cls(
            chain=chain,
            registry=registry,
            owner=provider,
            contract_address=chain.next_contract_address(),
            link=link,
            required_license=required_license,
            scenario=scenario,
            profit_margin_pct=profit_margin_pct,
            access_fraction_pct=access_fraction_pct,
            renew_fraction_pct=renew_fraction_pct,
            token_store=token_store if token_store is not None else TokenStore(),
        )
        contract.bill(provider, DEPLOYMENT)
        contract.bill(provider, PUBLISH_DATA)
        return contract

    @property
    def contract_balance_wei(self) -> int:
        return self.chain.balance(self.contract_address)

    def accrue_cost(self, fee_wei: int) -> None:
        """Book one metered owner call's gas fee into both cost ledgers."""
        # Margin scales what requesters reimburse, floored to whole wei.
        self.current_cost_wei += fee_wei * self.profit_margin_pct // 100
        self.provider_cost_wei += fee_wei

    def quote(self, fraction_pct: int) -> int:
        """The one quote rule: fraction_pct of the pool, rounded up to the next wei; 0 in scenario 1.

        Rounding up makes repeated payments against a fixed cost terminate at exactly zero.
        """
        return 0 if self.scenario is _NO_COMPENSATION else -(-self.current_cost_wei * fraction_pct // 100)

    def apply_payment(self, payment_wei: int) -> None:
        pool = self.current_cost_wei
        self.current_cost_wei = pool - payment_wei if payment_wei < pool else 0
        self.provider_earnings_wei += payment_wei

    def bill(self, caller: Address, function: str, extra_gas: int = 0) -> TxReceipt:
        """Execute one owner call, name this contract and its margin on the receipt, and book its gas."""
        receipt = self.chain.execute(caller, function, extra_gas, 0, None, self.contract_address,
                                     self.profit_margin_pct)
        self.accrue_cost(receipt.gas_fee_wei)
        return receipt

    def collect(self, payer: Address, function: str, value_wei: int) -> TxReceipt:
        """Execute a requester call paying value_wei to this contract, named on the receipt; drain the pool by it."""
        address = self.contract_address
        receipt = self.chain.execute(payer, function, 0, value_wei, address if value_wei else None, address)
        self.apply_payment(value_wei)
        return receipt

    def require_live(self) -> None:
        """The one liveness guard: every call on a destroyed contract raises here."""
        if self.destroyed:
            raise DestroyedError(f"{self.contract_address} is destroyed")

    def _require_owner(self, caller: Address) -> None:
        self.require_live()
        if caller != self.owner:
            raise NotOwnerError(f"{caller} does not own {self.contract_address}")

    def update_data(self, caller: Address) -> TxReceipt:
        """Publish a new version; every holder is notified and must re-confirm.

        Gas grows with the number of active tokens, one notification each.
        """
        self._require_owner(caller)
        receipt = self.bill(caller, UPDATE_DATA, self.chain.schedule.per_requester_update_gas * len(self.holders))
        self.meta_version += 1
        self.token_store.invalidate_compliance(self.holders, self.chain.period)
        return receipt

    def set_license(self, caller: Address, new_license: int) -> TxReceipt:
        """Change the required license; mismatched live tokens are burned."""
        self._require_owner(caller)
        receipt = self.bill(caller, SET_LICENSE)
        self.required_license = new_license
        # A burn leaves holders, so the loop walks a copy.
        for token in list(self.holders.values()):
            if token.license_code != new_license:
                burn_token(self, token, BurnCause.LICENSE_CHANGE)
        return receipt

    def set_profit_margin(self, caller: Address, pct: int) -> TxReceipt:
        self._require_owner(caller)
        check_pct("profit margin", pct, MARGIN_PCT)
        receipt = self.bill(caller, SET_PROFIT_MARGIN)
        self.profit_margin_pct = pct
        return receipt

    def set_multis(self, caller: Address, access_fraction_pct: int, renew_fraction_pct: int) -> TxReceipt:
        self._require_owner(caller)
        check_pct("access fraction", access_fraction_pct, FRACTION_PCT)
        check_pct("renew fraction", renew_fraction_pct, FRACTION_PCT)
        receipt = self.bill(caller, SET_MULTIS)
        self.access_fraction_pct = access_fraction_pct
        self.renew_fraction_pct = renew_fraction_pct
        return receipt

    def set_price(self, caller: Address, price_wei: int) -> TxReceipt:
        # Stored for completeness; the compensation flow never reads it.
        self._require_owner(caller)
        if price_wei < 0:
            raise OutOfRangeError(f"price cannot be negative, got {price_wei}")
        receipt = self.bill(caller, SET_PRICE)
        self.price_wei = price_wei
        return receipt

    def set_registry_address(self, caller: Address, registry: Registry) -> TxReceipt:
        self._require_owner(caller)
        receipt = self.bill(caller, SET_REGISTRY_ADDRESS)
        self.registry = registry
        return receipt

    def withdraw(self, caller: Address) -> TxReceipt:
        """Pull accumulated payments to the owner without destroying."""
        self._require_owner(caller)
        return self.chain.transfer(self.contract_address, self.owner, self.contract_balance_wei, WITHDRAW)

    def destroy(self, caller: Address) -> TxReceipt:
        """Terminate the contract: pay out the balance, zero all state.

        Held tokens are not burned but every operation on the contract,
        including access through existing tokens, fails afterwards. Nothing
        is refunded to requesters.
        """
        if self.destroyed:
            raise AlreadyDestroyedError(f"{self.contract_address} is already destroyed")
        self._require_owner(caller)
        receipt = self.chain.transfer(self.contract_address, self.owner, self.contract_balance_wei, DESTROY)
        self.destroyed = True
        self.link = ""
        self.meta_version = 0
        self.price_wei = 0
        self.current_cost_wei = 0
        self.provider_cost_wei = 0
        self.provider_earnings_wei = 0
        self.holders.clear()
        return receipt
