"""Exception types shared across the ledger, contract and engine layers.

Every failure raised by contract state machines derives from LedgerError so
callers can trap simulation-level faults without catching programming errors.
Transactions that raise must leave all balances and contract state untouched.
"""

from __future__ import annotations


class LedgerError(Exception):
    """Base class for every simulated-ledger failure."""


class UnknownFunctionError(LedgerError):
    """Function tag has no entry in the gas schedule."""


class UnknownAccountError(LedgerError):
    """Caller or recipient address has no account on the chain."""


class InsufficientFundsError(LedgerError):
    """Caller balance cannot cover gas fee plus transferred value."""


class NotAuthorityError(LedgerError):
    """Registry mutation attempted by an address other than the authority."""


class AlreadyRegisteredError(LedgerError):
    """Address is already present in the registry."""


class NotRegisteredError(LedgerError):
    """Address is not present in the registry."""


class NotProviderError(LedgerError):
    """Address is not an approved data provider."""


class NotOwnerError(LedgerError):
    """Contract mutation attempted by an address other than the owner."""


class DestroyedError(LedgerError):
    """Operation attempted on a destroyed contract."""


class AlreadyDestroyedError(LedgerError):
    """Destroy attempted twice."""


class OutOfRangeError(LedgerError):
    """Percentage or price parameter outside its legal range."""


class DuplicateTokenError(LedgerError):
    """User already holds a live access token for this dataset."""


class LicenseMismatchError(LedgerError):
    """User is not registered with the license the dataset requires."""


class InsufficientPaymentError(LedgerError):
    """Transferred value is below the quoted payment."""


class ExcessPaymentError(LedgerError):
    """Transferred value exceeds the quoted payment; no refunds are made."""


class NoTokenError(LedgerError):
    """User holds no live access token for this dataset."""


class ComplianceRequiredError(LedgerError):
    """Renewal attempted before confirming compliance with the latest update."""


class ExpiredError(LedgerError):
    """Access token has run out of access time."""


class AlreadyBurnedError(LedgerError):
    """Burn attempted on a token that is already burned."""


class ConfigError(ValueError):
    """A setting is inconsistent or out of range; raised before any simulation.

    Not a LedgerError: a bad configuration is the caller's input, not a
    simulated-ledger failure, and the CLI exits 2 on it.
    """


class EngineError(LedgerError):
    """A contract call failed inside the period loop; carries run context."""


class ReconciliationFailureError(LedgerError):
    """Summary totals disagree with an independent replay of the ledger."""
