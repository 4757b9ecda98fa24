"""Period-loop simulation engine.

Each period runs four phases in a fixed order: publish, update, request,
renew. Exactly one provider is "in line" to publish and exactly one
requester is "in line" to request; both retry every period until their
probability roll succeeds, and the requester queue advances in account
creation order. A requester requests once, so they hold one token, and
its expiry ACCESS_PERIODS periods after their last action is their
cool-down: every expired token gets a renewal chance each period. The
engine never burns, so the active requesters are the tokens minted so far
and a dataset's active tokens are its contract's holders. The
run stops the moment the configured number of actions has occurred,
mid-period if necessary.

Determinism: a single seeded generator drives every draw, in a fixed
order - population generation first, then per period the publish roll
(the very first publish is forced and consumes no draw), one update roll
per published provider, the request roll, the target-dataset choice, and
one renewal roll per expired token in token-id order. No draw depends on
scenario, margin or fraction parameters, so runs that share a seed share
their entire action stream across those settings.

Sharing: the registry bootstrap depends on no seed and the population
draw on the seed alone, so a sweep builds each once in a SharedStart and
starts every run from copies, with the generator restored to its state
after the draw; it also formats each draw's population.csv once. Every
run writes the same bytes as a direct run, which builds its start state
fresh and uses it in place.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from enum import Enum

from .agents import AgentProfile, PopulationConfig, Role, decay_renewal_prob, generate_population, population_csv
from .chain import (
    GWEI,
    Address,
    ChainState,
    GasSchedule,
    NEW_DATA_PROVIDER,
    PriceModel,
    REGISTER_NEW_USER,
    REGISTRY_DEPLOYMENT,
    WEI_PER_ETH,
    default_gas_schedule,
)
from .dataset import FRACTION_PCT, MARGIN_PCT, DatasetContract, Scenario, check_pct
from .errors import ConfigError, EngineError, LedgerError
from .registry import DEFAULT_LICENSE, Registry
from .tokens import (
    AccessToken,
    TokenStore,
    confirm_compliance,
    quote_payment,
    renew_access_time,
    request_access,
)

# Safety valve only; real runs finish in a few hundred periods.
MAX_PERIODS = 1_000_000


class ActionKind(Enum):
    PUBLISH = "publish"
    UPDATE = "update"
    REQUEST = "request"
    RENEW = "renew"


@dataclass(slots=True)
class ActionRecord:
    index: int
    period: int
    kind: ActionKind
    actor: Address
    dataset: Address
    tx_gas_fee_wei: int
    payment_wei: int
    usd_total: float
    # Compensation pool of the acted-on contract right after the action;
    # lets reports plot the running-cost trajectory at action granularity.
    current_cost_after_wei: int


@dataclass(slots=True)
class PeriodStats:
    period: int
    current_cost_wei: int
    provider_cost_wei: int
    provider_earnings_wei: int
    profit_wei: int
    active_requesters: int
    actions_this_period: int


@dataclass(slots=True)
class ContractSnapshot:
    period: int
    contract: Address
    current_cost_wei: int
    provider_cost_wei: int
    provider_earnings_wei: int
    active_tokens: int
    meta_version: int


@dataclass(frozen=True)
class SimConfig:
    scenario: Scenario = Scenario.COST_RECOVERY
    action_ticker: int = 500
    access_fraction_pct: int = 5
    renew_fraction_pct: int = 5
    profit_margin_pct: int | None = None  # None resolves per scenario
    update_multiplier: int = 5
    prefund_wei: int = 100 * WEI_PER_ETH
    seed: int = 0
    population: PopulationConfig = field(default_factory=PopulationConfig)
    price: PriceModel = field(default_factory=PriceModel)
    schedule: GasSchedule = field(default_factory=default_gas_schedule)

    @property
    def resolved_margin_pct(self) -> int:
        if self.profit_margin_pct is not None:
            return self.profit_margin_pct
        return 200 if self.scenario is Scenario.PROFIT else 100

    def validate(self) -> None:
        # random.Random(-n) seeds exactly like random.Random(n).
        if self.seed < 0:
            raise ConfigError(f"seed must be at least 0, got {self.seed}")
        if self.action_ticker < 1:
            raise ConfigError("action ticker must be at least 1")
        if self.update_multiplier < 1:
            raise ConfigError("update multiplier must be at least 1")
        if self.prefund_wei <= 0:
            raise ConfigError("prefund must be positive")
        margin = self.resolved_margin_pct
        # The contract's own bounds, checked here so that a run the
        # contract would refuse at its first publication never starts.
        check_pct("profit margin", margin, MARGIN_PCT, ConfigError)
        check_pct("access fraction", self.access_fraction_pct, FRACTION_PCT, ConfigError)
        check_pct("renew fraction", self.renew_fraction_pct, FRACTION_PCT, ConfigError)
        if self.scenario is Scenario.PROFIT and margin <= 100:
            raise ConfigError("scenario 3 needs a profit margin above 100")
        if self.scenario is not Scenario.PROFIT and margin != 100:
            raise ConfigError("scenarios 1 and 2 track pure costs; margin must be 100")
        self.population.validate()
        # The authority is funded with the same prefund as every agent and
        # pays the whole registry bootstrap before the first period.
        providers = self.population.max_providers
        bootstrap_fee = self.price.fee_wei(
            self.schedule.gas_for(REGISTRY_DEPLOYMENT)
            + providers * self.schedule.gas_for(NEW_DATA_PROVIDER)
            + (self.population.n_accounts - providers) * self.schedule.gas_for(REGISTER_NEW_USER)
        )
        if self.prefund_wei < bootstrap_fee:
            raise ConfigError(
                f"prefund of {self.prefund_wei} wei cannot pay the registry bootstrap "
                f"of {bootstrap_fee} wei for {self.population.n_accounts} accounts"
            )
        # The largest wei figure a report converts to USD is the cost pool:
        # at most every minted wei (agents plus authority) scaled by the margin.
        most_wei = self.prefund_wei * (self.population.n_accounts + 1) * margin // 100
        try:
            self.price.wei_to_usd(most_wei)
        except OverflowError:
            raise ConfigError(
                f"exchange rate {self.price.eth_usd!r} overflows the USD value of {most_wei} wei"
            ) from None


def settings(cfg: SimConfig) -> dict[str, int | float]:
    """The CLI-settable values of cfg, keyed by flag name, in config.txt order.

    The CLI takes its flags, config-file keys, value types and defaults from
    settings(SimConfig()); cli.build_sim_config is the inverse.
    """
    return {
        "scenario": cfg.scenario.value,
        "actions": cfg.action_ticker,
        "access-fraction": cfg.access_fraction_pct,
        "renew-fraction": cfg.renew_fraction_pct,
        "profit-margin": cfg.resolved_margin_pct,
        "update-multiplier": cfg.update_multiplier,
        "accounts": cfg.population.n_accounts,
        "max-providers": cfg.population.max_providers,
        "decay": cfg.population.decay,
        "provider-prob-max": cfg.population.provider_prob_max,
        "gas-price-gwei": cfg.price.gas_price_wei / GWEI,
        "eth-usd": cfg.price.eth_usd,
        "seed": cfg.seed,
    }


@dataclass
class SimResult:
    config: SimConfig
    records: list[ActionRecord]
    series: list[PeriodStats]
    contract_snapshots: list[ContractSnapshot]
    chain: ChainState
    registry: Registry
    token_store: TokenStore
    population: list[AgentProfile]
    datasets: list[DatasetContract]
    # population.csv of a shared draw, formatted once for all its runs.
    population_text: str | None = None


def _publish_dataset(
    chain: ChainState,
    registry: Registry,
    store: TokenStore,
    cfg: SimConfig,
    provider: AgentProfile,
    ordinal: int,
) -> tuple[DatasetContract, int]:
    """Deploy, publish and configure one dataset, returning total gas fees.

    The three parameter-setting calls happen once at publication and are
    billed like any owner call but never count as simulation actions.
    """
    contract = DatasetContract.deploy_and_publish(
        chain,
        registry,
        provider.address,
        link=f"data://{provider.address}/{ordinal}",
        required_license=DEFAULT_LICENSE,
        scenario=cfg.scenario,
        profit_margin_pct=cfg.resolved_margin_pct,
        access_fraction_pct=cfg.access_fraction_pct,
        renew_fraction_pct=cfg.renew_fraction_pct,
        token_store=store,
    )
    fees = sum(r.gas_fee_wei for r in chain.receipts[-2:])
    fees += contract.set_registry_address(provider.address, registry).gas_fee_wei
    fees += contract.set_profit_margin(provider.address, cfg.resolved_margin_pct).gas_fee_wei
    fees += contract.set_multis(provider.address, cfg.access_fraction_pct, cfg.renew_fraction_pct).gas_fee_wei
    return contract, fees


def build_start(cfg: SimConfig) -> tuple[ChainState, Registry]:
    """Funded accounts and the registry bootstrap: providers first, then users."""
    chain = ChainState(cfg.schedule, cfg.price)
    accounts = chain.create_accounts(cfg.population.n_accounts, cfg.prefund_wei)
    authority = chain.create_named_account("authority", cfg.prefund_wei)
    registry = Registry.deploy(chain, authority)
    for address in accounts[: cfg.population.max_providers]:
        registry.new_data_provider(authority, address)
    for address in accounts[cfg.population.max_providers:]:
        registry.register_new_user(authority, address, DEFAULT_LICENSE)
    return chain, registry


class SharedStart:
    """The start state of a sweep's runs: one bootstrap and one seed's draw."""

    bootstrap: tuple = (None, None, None)  # (settings, chain, registry)
    draw: tuple = (None, (), None, None)  # ((seed, population), profiles, generator state, population.csv)

    def start(self, cfg: SimConfig) -> tuple[ChainState, Registry, list[AgentProfile], random.Random, str]:
        # A GasSchedule holds a dict, so the settings are compared, not hashed.
        key = (cfg.population.n_accounts, cfg.population.max_providers, cfg.prefund_wei, cfg.price, cfg.schedule)
        if self.bootstrap[0] != key:
            self.bootstrap = (key, *build_start(cfg))
        if self.draw[0] != (cfg.seed, cfg.population):
            rng = random.Random(cfg.seed)
            profiles = generate_population(cfg.population, rng)
            self.draw = ((cfg.seed, cfg.population), profiles, rng.getstate(), population_csv(profiles))
        (_, chain, registry), (_, profiles, state, text) = self.bootstrap, self.draw
        rng = random.Random()
        rng.setstate(state)
        chain = chain.fork()
        # current_prob and renewals change during a run; the rest is read-only.
        population = [AgentProfile(p.address, p.role, p.base_prob, p.current_prob, p.decay) for p in profiles]
        return chain, registry.fork(chain), population, rng, text


def run_simulation(cfg: SimConfig, shared: SharedStart | None = None) -> SimResult:
    """Run cfg from the start state of shared, or from a fresh one."""
    cfg.validate()
    if shared is None:
        chain, registry = build_start(cfg)
        rng = random.Random(cfg.seed)
        population = generate_population(cfg.population, rng)
        population_text = None
    else:
        chain, registry, population, rng, population_text = shared.start(cfg)

    store = TokenStore()
    providers = [p for p in population if p.role is Role.PROVIDER]
    # A requester at probability 0.0 could never request and would hold the
    # queue forever, so they never join it.
    requesters = [p for p in population if p.role is Role.REQUESTER and p.current_prob > 0.0]
    datasets: list[DatasetContract] = []
    # Every token the run mints, with its holder and contract, in mint
    # order, which is token-id order. The engine never burns or destroys.
    roster: list[tuple[AccessToken, AgentProfile, DatasetContract]] = []

    records: list[ActionRecord] = []
    series: list[PeriodStats] = []
    snapshots: list[ContractSnapshot] = []
    actions = 0
    next_provider = 0
    next_requester = 0
    period = 0

    def record(kind: ActionKind, actor: Address, contract: DatasetContract, fee_wei: int, payment_wei: int) -> None:
        nonlocal actions
        records.append(
            ActionRecord(
                index=len(records),
                period=period,
                kind=kind,
                actor=actor,
                dataset=contract.contract_address,
                tx_gas_fee_wei=fee_wei,
                payment_wei=payment_wei,
                usd_total=chain.price.wei_to_usd(fee_wei + payment_wei),
                current_cost_after_wei=contract.current_cost_wei,
            )
        )
        actions += 1

    try:
        while actions < cfg.action_ticker:
            if period >= MAX_PERIODS:
                raise EngineError(f"no progress after {MAX_PERIODS} periods")
            chain.period = period
            actions_at_start = actions

            # Publish: the next provider in line rolls; the very first
            # publication of the run happens unconditionally.
            if next_provider < len(providers):
                provider = providers[next_provider]
                goes = not records or rng.random() < provider.current_prob
                if goes:
                    contract, fees = _publish_dataset(chain, registry, store, cfg, provider, next_provider + 1)
                    datasets.append(contract)
                    record(ActionKind.PUBLISH, provider.address, contract, fees, 0)
                    next_provider += 1

            # Update: every provider with a published dataset rolls;
            # provider i published datasets[i].
            if actions < cfg.action_ticker:
                for contract, owner in zip(datasets, providers):
                    if actions >= cfg.action_ticker:
                        break
                    update_prob = min(1.0, owner.base_prob * cfg.update_multiplier)
                    if rng.random() < update_prob:
                        receipt = contract.update_data(owner.address)
                        record(ActionKind.UPDATE, owner.address, contract, receipt.gas_fee_wei, 0)

            # Request: the requester in line rolls; on decline the same
            # requester tries again next period. They have never requested,
            # so every dataset is open to them.
            if actions < cfg.action_ticker and next_requester < len(requesters):
                requester = requesters[next_requester]
                if rng.random() < requester.current_prob:
                    contract = datasets[rng.randrange(len(datasets))]
                    payment = quote_payment(contract, "access")
                    token = request_access(requester.address, contract, payment)
                    roster.append((token, requester, contract))
                    receipt = chain.receipts[-1]
                    record(ActionKind.REQUEST, requester.address, contract, receipt.gas_fee_wei, payment)
                    next_requester += 1

            # Renew: each holder of an expired token rolls. A holder's one
            # token was granted or last renewed by their last action, so its
            # expiry is their cool-down of ACCESS_PERIODS periods.
            if actions < cfg.action_ticker:
                for token, holder, contract in roster:
                    if token.access_until > period:
                        continue
                    if rng.random() < holder.current_prob:
                        if not token.compliance:
                            confirm_compliance(holder.address, contract)
                        payment = quote_payment(contract, "renewal")
                        renew_access_time(holder.address, contract, payment)
                        receipt = chain.receipts[-1]
                        decay_renewal_prob(holder)
                        record(ActionKind.RENEW, holder.address, contract, receipt.gas_fee_wei, payment)
                        if actions >= cfg.action_ticker:
                            break

            current_cost = sum(c.current_cost_wei for c in datasets)
            cost = sum(c.provider_cost_wei for c in datasets)
            earnings = sum(c.provider_earnings_wei for c in datasets)
            series.append(
                PeriodStats(
                    period=period,
                    current_cost_wei=current_cost,
                    provider_cost_wei=cost,
                    provider_earnings_wei=earnings,
                    profit_wei=earnings - cost,
                    active_requesters=len(roster),
                    actions_this_period=actions - actions_at_start,
                )
            )
            for contract in datasets:
                snapshots.append(
                    ContractSnapshot(
                        period=period,
                        contract=contract.contract_address,
                        current_cost_wei=contract.current_cost_wei,
                        provider_cost_wei=contract.provider_cost_wei,
                        provider_earnings_wei=contract.provider_earnings_wei,
                        active_tokens=len(contract.holders),
                        meta_version=contract.meta_version,
                    )
                )
            period += 1
    except LedgerError as exc:
        raise EngineError(
            f"seed {cfg.seed}, scenario {cfg.scenario.value}, margin {cfg.resolved_margin_pct}, "
            f"access fraction {cfg.access_fraction_pct}, renew fraction {cfg.renew_fraction_pct}, "
            f"period {period}, action {actions}: {exc}"
        ) from exc

    return SimResult(
        config=cfg,
        records=records,
        series=series,
        contract_snapshots=snapshots,
        chain=chain,
        registry=registry,
        token_store=store,
        population=population,
        datasets=datasets,
        population_text=population_text,
    )


def break_even_period(result: SimResult) -> int | None:
    """First period whose cumulative profit is non-negative, if any."""
    for stats in result.series:
        if stats.profit_wei >= 0:
            return stats.period
    return None


def with_seed(cfg: SimConfig, seed: int) -> SimConfig:
    return replace(cfg, seed=seed, population=replace(cfg.population, seed=seed))
