"""Agent-based simulator for cost-sharing data markets on a mock ledger.

Providers publish datasets through gas-metered contracts, requesters buy
time-limited access tokens whose payments amortize the provider's running
costs, and a seeded agent population drives the whole market period by
period. Everything is deterministic per seed and reconciled against the
transaction log before any report is written.
"""

from .agents import AgentProfile, PopulationConfig, decay_renewal_prob, generate_population
from .chain import (
    Address,
    ChainState,
    GasSchedule,
    MINER_ADDRESS,
    NULL_ADDRESS,
    PriceModel,
    TxReceipt,
    WEI_PER_ETH,
    default_gas_schedule,
)
from .dataset import DatasetContract, Scenario
from .engine import (
    PeriodStats,
    SimConfig,
    SimResult,
    break_even_period,
    run_simulation,
    with_seed,
)
from .errors import (
    ConfigError,
    EngineError,
    LedgerError,
    ReconciliationFailureError,
)
from .registry import DEFAULT_LICENSE, Registry
from .reporting import RunSummary, summarize, write_run_reports
from .tokens import (
    ACCESS_PERIODS,
    AccessToken,
    BurnCause,
    TokenStore,
    burn_token,
    confirm_compliance,
    get_link,
    quote_payment,
    renew_access_time,
    request_access,
)

__version__ = "0.1.0"

__all__ = [
    "ACCESS_PERIODS",
    "AccessToken",
    "Address",
    "AgentProfile",
    "BurnCause",
    "ChainState",
    "ConfigError",
    "DEFAULT_LICENSE",
    "DatasetContract",
    "EngineError",
    "GasSchedule",
    "LedgerError",
    "MINER_ADDRESS",
    "NULL_ADDRESS",
    "PeriodStats",
    "PopulationConfig",
    "PriceModel",
    "ReconciliationFailureError",
    "Registry",
    "RunSummary",
    "Scenario",
    "SimConfig",
    "SimResult",
    "TokenStore",
    "TxReceipt",
    "WEI_PER_ETH",
    "break_even_period",
    "burn_token",
    "confirm_compliance",
    "decay_renewal_prob",
    "default_gas_schedule",
    "generate_population",
    "get_link",
    "quote_payment",
    "renew_access_time",
    "request_access",
    "run_simulation",
    "summarize",
    "with_seed",
    "write_run_reports",
]
