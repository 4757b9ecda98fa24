"""Access tokens and the request/renew payment gateway.

An access token is the non-transferable key a requester holds for one
dataset: it carries an expiry period, a compliance flag that dataset
updates reset, and burn bookkeeping. The gateway functions check once
that the contract is live, then charge the payment of the contract's one
quote rule, `DatasetContract.quote`: a share of its pool on access
requests and renewals in scenarios 2 and 3, nothing in scenario 1. The
contract's `collect` takes it in and books it.

A contract's holders map is the one index of live tokens: each holder's
live token, in mint order. A burn removes the token from it and destroy
clears it. The TokenStore keeps the event log and every token a run
mints, so the next id is one past their count. The log is a flat list of
four fields per recorded event and per update; `TokenStore.events` replays
it into the per-holder trail, new TokenEvents in a new list on every read.

Access grants run in periods, not wall-clock time: every grant or renewal
adds ACCESS_PERIODS periods of access. Payments must match the quote
exactly; underpayment and overpayment are both rejected so that value
conservation stays trivial to audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterator

from .chain import ADD_DATA_REQUESTER, Address, NULL_ADDRESS, RENEW_TOKEN, csv_text
from .errors import (
    AlreadyBurnedError,
    ComplianceRequiredError,
    DuplicateTokenError,
    ExcessPaymentError,
    ExpiredError,
    InsufficientPaymentError,
    LicenseMismatchError,
    NoTokenError,
)

if TYPE_CHECKING:  # only for annotations; avoids a circular import
    from .dataset import DatasetContract

ACCESS_PERIODS = 2
UPDATE = "update"  # the kind of a log entry that notifies every holder of its dataset


class BurnCause(Enum):
    REQUESTER = "requester"
    LICENSE_CHANGE = "licenseChange"


@dataclass(slots=True)
class AccessToken:
    token_id: int
    dataset_address: Address
    user: Address
    license_code: int
    minted_period: int
    access_until: int
    compliance: bool = True
    burned: bool = False
    remaining_at_burn: int = 0


@dataclass(slots=True)
class TokenEvent:
    """Audit-trail entry: mint, update notice, renewal, compliance and burn.

    Only TokenStore.events builds one, on read. Not frozen: a frozen dataclass
    builds through object.__setattr__ at about four times the cost.
    """

    kind: str
    period: int
    token_id: int
    user: Address


@dataclass(slots=True, eq=False, repr=False)
class TokenStore:
    """All tokens of a run and their event log; token ids are unique and never reused."""

    tokens: dict[int, AccessToken] = field(init=False, default_factory=dict)  # never shrinks: ids run 1, 2, ...
    # Four fields per entry: kind, period, token id, user; an update's are UPDATE, period, dataset, None.
    _log: list[str | int | None] = field(init=False, default_factory=list)

    def mint(
        self,
        dataset_address: Address,
        user: Address,
        license_code: int,
        period: int,
    ) -> AccessToken:
        token = AccessToken(
            token_id=len(self.tokens) + 1,
            dataset_address=dataset_address,
            user=user,
            license_code=license_code,
            minted_period=period,
            access_until=period + ACCESS_PERIODS,
        )
        self.tokens[token.token_id] = token
        self.record("minted", period, token.token_id, user)
        return token

    def live_tokens(self) -> Iterator[AccessToken]:
        """Unburned tokens in ascending id order."""
        for token in self.tokens.values():
            if not token.burned:
                yield token

    def record(self, kind: str, period: int, token_id: int, user: Address) -> None:
        self._log.extend((kind, period, token_id, user))

    def invalidate_compliance(self, holders: dict[Address, AccessToken], period: int) -> None:
        for token in holders.values():
            token.compliance = False
        if holders:
            self._log.extend((UPDATE, period, token.dataset_address, None))

    @property
    def events(self) -> list[TokenEvent]:
        """The per-holder trail, new events in a new list on every read: one forward walk of the log
        that keeps each dataset's holders by token id, in mint order. A mint adds one, a burn removes
        it, and an update entry notifies each. Destroy drops none, but no update follows it."""
        tokens, holders, events, log = self.tokens, {}, [], iter(self._log)
        for kind, period, token_id, user in zip(log, log, log, log):
            if kind == UPDATE:  # token_id holds the updated dataset
                events += [TokenEvent("updateNotice", period, i, user) for i, user in holders[token_id].items()]
                continue
            events.append(TokenEvent(kind, period, token_id, user))
            if kind == "minted":
                holders.setdefault(tokens[token_id].dataset_address, {})[token_id] = user
            elif kind == "burnNotice":
                del holders[tokens[token_id].dataset_address][token_id]
        return events

    def table_csv(self) -> Iterator[str]:
        return csv_text("tokenId,dataset,user,mintedPeriod,accessUntil,compliance,burned,remainingAtBurn", (
            f"{t.token_id},{t.dataset_address},{t.user},{t.minted_period},"
            f"{t.access_until},{t.compliance},{t.burned},{t.remaining_at_burn}"
            for t in self.tokens.values()
        ))


def quote_payment(c: "DatasetContract", kind: str) -> int:
    """Quote the cost-sharing payment in wei for an access request or a renewal, by the contract's quote rule."""
    c.require_live()
    if kind == "access":
        return c.quote(c.access_fraction_pct)
    if kind == "renewal":
        return c.quote(c.renew_fraction_pct)
    raise ValueError(f"unknown quote kind {kind!r}")


def _pay(requester: Address, c: "DatasetContract", fraction_pct: int, function: str, value_wei: int) -> None:
    """Collect a payment through the contract; it must match the quote at fraction_pct exactly.

    The gateway calls it just after its own liveness check, so it checks none.
    """
    quote_wei = c.quote(fraction_pct)
    if value_wei < quote_wei:
        raise InsufficientPaymentError(f"quoted {quote_wei} wei, got {value_wei}")
    if value_wei > quote_wei:
        raise ExcessPaymentError(f"quoted {quote_wei} wei, got {value_wei}; no refunds")
    c.collect(requester, function, value_wei)


def _held_token(requester: Address, c: "DatasetContract") -> AccessToken:
    """The requester's live token on a live contract."""
    c.require_live()
    token = c.holders.get(requester)
    if token is None:
        raise NoTokenError(f"{requester} holds no token for {c.contract_address}")
    return token


def request_access(requester: Address, c: "DatasetContract", value_wei: int) -> AccessToken:
    """Mint an access token against the quoted payment."""
    c.require_live()
    if requester in c.holders:
        raise DuplicateTokenError(f"{requester} already holds a token for {c.contract_address}")
    if not c.registry.check_user(requester, c.required_license):
        raise LicenseMismatchError(f"{requester} lacks license {c.required_license}")
    _pay(requester, c, c.access_fraction_pct, ADD_DATA_REQUESTER, value_wei)
    token = c.token_store.mint(c.contract_address, requester, c.required_license, c.chain.period)
    c.holders[requester] = token
    return token


def renew_access_time(requester: Address, c: "DatasetContract", value_wei: int) -> AccessToken:
    """Extend a held token by ACCESS_PERIODS against the quoted payment."""
    token = _held_token(requester, c)
    if not token.compliance:
        raise ComplianceRequiredError(f"{requester} must confirm compliance before renewing")
    _pay(requester, c, c.renew_fraction_pct, RENEW_TOKEN, value_wei)
    # An expired token restarts from now, an unexpired one stacks on top.
    period, until = c.chain.period, token.access_until
    token.access_until = (until if until > period else period) + ACCESS_PERIODS
    c.token_store.record("renewed", period, token.token_id, requester)
    return token


def confirm_compliance(requester: Address, c: "DatasetContract") -> AccessToken:
    """Record that the holder applied the latest update; free of gas."""
    token = _held_token(requester, c)
    token.compliance = True
    c.token_store.record("complianceConfirmed", c.chain.period, token.token_id, requester)
    return token


def get_link(requester: Address, c: "DatasetContract") -> str:
    """Hand out the data locator to a holder with unexpired access."""
    token = _held_token(requester, c)
    if c.chain.period >= token.access_until:
        raise ExpiredError(f"token {token.token_id} expired at period {token.access_until}")
    return c.link


def burn_token(c: "DatasetContract", token: AccessToken, cause: BurnCause) -> None:
    """Retire a token that is live on c; free of gas.

    A requester-initiated burn certifies the holder destroyed their copy,
    so compliance ends true; a license-change burn evicts the holder with
    compliance false until they react.
    """
    c.require_live()
    if token.burned:
        raise AlreadyBurnedError(f"token {token.token_id} is already burned")
    holder = token.user
    if c.holders.get(holder) is not token:
        raise NoTokenError(f"token {token.token_id} is not live on {c.contract_address}")
    period = c.chain.period
    token.remaining_at_burn = max(0, token.access_until - period)
    token.burned = True
    token.compliance = cause is BurnCause.REQUESTER
    del c.holders[holder]
    token.user = NULL_ADDRESS
    c.token_store.record("burnNotice", period, token.token_id, holder)
