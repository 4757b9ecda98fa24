"""Period-loop simulation engine, in two stages: simulate draws, settle books.

`simulate` runs the period loop. Each period runs four phases in a fixed
order: publish, update, request, renew. Exactly one provider is "in line"
to publish and exactly one requester is "in line" to request; both retry
every period until their probability roll succeeds, and the requester
queue advances in account creation order. A requester requests once, so
they hold one token, and its expiry ACCESS_PERIODS periods after their
last action is their cool-down: every expired token gets a renewal chance
each period. The engine never burns, so the active requesters are the
tokens minted so far and a dataset's active tokens are its contract's
holders. The loop stops the moment the configured number of actions has
occurred, mid-period if necessary. It touches no chain, contract or token
store: its Stream is the population and each action's kind (PUBLISH,
UPDATE, REQUEST or RENEW, the text the reports print), actor and dataset.
`settle` then books a stream through the contract API, and a run is
`settle(cfg, simulate(cfg))`.

Determinism: a single seeded generator drives every draw, in a fixed
order - population generation first, then per period the publish roll
(the very first publish is forced and consumes no draw), one update roll
per published provider, the request roll, the target-dataset choice, and
one renewal roll per expired token in token-id order. Each phase draws
its rolls in that order before any of them books: no roll reads another's
outcome, and rolls past the last action are dropped unread. No draw
depends on scenario, margin or fraction parameters, so runs that share a
seed share their entire action stream across those settings.

Sharing: the registry bootstrap depends on no seed, so a sweep builds its
start, build_start's (chain, registry) pair, once and settles each run on
a fork of it. Nor does the stream depend on economics, so a sweep
simulates each seed once and settles every cell of the seed from that
stream, with a token store of its own. A cell that cannot pay fails with
a direct run's error, at the same period and action, and every run's
reports hold the same bytes as a direct run's, which builds its start fresh.
"""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass, field, replace
from itertools import islice
from operator import attrgetter
from typing import Iterable, Iterator

from .agents import AgentProfile, PopulationConfig, decay_renewal_prob, generate_population
from .chain import (
    GWEI,
    Address,
    ChainState,
    GasSchedule,
    NEW_DATA_PROVIDER,
    PriceModel,
    REGISTER_NEW_USER,
    REGISTRY_DEPLOYMENT,
    TxReceipt,
    WEI_PER_ETH,
    default_gas_schedule,
)
from .dataset import FRACTION_PCT, MARGIN_PCT, DatasetContract, Scenario, check_pct
from .errors import ConfigError, EngineError, LedgerError
from .registry import DEFAULT_LICENSE, Registry
from .tokens import (
    ACCESS_PERIODS,
    TokenStore,
    confirm_compliance,
    quote_payment,
    renew_access_time,
    request_access,
)

# Safety valve only; a 20,000-action run over 20,000 accounts takes about 2,500 periods.
MAX_PERIODS = 1_000_000
PREFUND_WEI = 100 * WEI_PER_ETH  # minted onto each agent and the authority
# What a run's action stream depends on; a stream settles only runs that share it.
_STREAM = attrgetter("seed", "population", "action_ticker", "update_multiplier")
# What build_start depends on; a start settles only runs that share it.
_START = attrgetter("population.n_accounts", "population.max_providers", "price", "schedule")
_FLOATS = ("decay", "provider-prob-max", "gas-price-gwei", "eth-usd")  # the settings that are not integers
PUBLISH, UPDATE, REQUEST, RENEW = "publish", "update", "request", "renew"  # the action kinds, as reports print them


# What a publication's record points at in place of its five receipts: their summed fee, under receipt field names.
Publication = namedtuple("Publication", "period caller contract gas_fee_wei usd_cost value_wei", defaults=(0,))


@dataclass(slots=True)
class Records:
    """A run's booked actions, each as three flat entries and no object: its kind, its receipt (a Publication
    for a publication) and its contract's pool right after it. Iterating yields those triples; len() counts actions."""

    flat: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.flat) // 3

    def __iter__(self) -> Iterator[tuple[str, TxReceipt | Publication, int]]:
        entries = iter(self.flat)
        return zip(entries, entries, entries)


@dataclass(slots=True)
class PeriodStats:
    period: int
    current_cost_wei: int
    provider_cost_wei: int
    provider_earnings_wei: int
    profit_wei: int
    active_requesters: int
    actions_this_period: int


@dataclass(frozen=True)
class SimConfig:
    scenario: Scenario = Scenario.COST_RECOVERY
    action_ticker: int = 500
    access_fraction_pct: int = 5
    renew_fraction_pct: int = 5
    profit_margin_pct: int | None = None  # None resolves per scenario
    update_multiplier: int = 5
    seed: int = 0
    population: PopulationConfig = field(default_factory=PopulationConfig)
    price: PriceModel = field(default_factory=PriceModel)
    schedule: GasSchedule = field(default_factory=default_gas_schedule)

    @property
    def resolved_margin_pct(self) -> int:
        if self.profit_margin_pct is not None:
            return self.profit_margin_pct
        return 200 if self.scenario is Scenario.PROFIT else 100

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, Scenario):
            raise ConfigError(f"scenario must be a Scenario, got {self.scenario!r}")
        # config.txt must parse back: an integer setting is an int, any other an int or a float, and none a bool.
        for flag, value in settings(self).items():
            if type(value) not in ((int, float) if flag in _FLOATS else (int,)):
                raise ConfigError(f"{flag} must be {'a number' if flag in _FLOATS else 'an integer'}, got {value!r}")
        # random.Random(-n) seeds exactly like random.Random(n).
        if self.seed < 0:
            raise ConfigError(f"seed must be at least 0, got {self.seed}")
        if self.action_ticker < 1:
            raise ConfigError("action ticker must be at least 1")
        if self.update_multiplier < 1:
            raise ConfigError("update multiplier must be at least 1")
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
        # The authority is funded with the same prefund as every agent and
        # pays the whole registry bootstrap before the first period.
        providers = self.population.max_providers
        bootstrap_fee = self.price.fee_wei(
            self.schedule.gas_for(REGISTRY_DEPLOYMENT)
            + providers * self.schedule.gas_for(NEW_DATA_PROVIDER)
            + (self.population.n_accounts - providers) * self.schedule.gas_for(REGISTER_NEW_USER)
        )
        if PREFUND_WEI < bootstrap_fee:
            raise ConfigError(
                f"prefund of {PREFUND_WEI} wei cannot pay the registry bootstrap "
                f"of {bootstrap_fee} wei for {self.population.n_accounts} accounts"
            )
        # The largest wei figure a report converts to USD is the cost pool:
        # at most every minted wei (agents plus authority) scaled by the margin.
        most_wei = PREFUND_WEI * (self.population.n_accounts + 1) * margin // 100
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


@dataclass(slots=True)
class Stream:
    """A seed's draws: its population, each action as (kind, actor, dataset ordinal), and the
    number of actions in each period. Fewer actions than the ticker means the loop stalled."""

    config: SimConfig
    population: list[AgentProfile]
    actions: list[tuple[str, Address, int]]
    counts: list[int]


@dataclass(slots=True)
class SimResult:
    """A settled run: its action records (see Records), their per-period totals (see period_books) and its ledgers."""

    config: SimConfig
    records: Records
    series: list[PeriodStats]
    chain: ChainState
    registry: Registry
    token_store: TokenStore
    population: list[AgentProfile]
    datasets: list[DatasetContract]


def _publish_dataset(chain: ChainState, registry: Registry, store: TokenStore, cfg: SimConfig,
                     provider: Address, ordinal: int) -> DatasetContract:
    """Deploy, publish and configure one dataset; its provider cost is the five calls' fees.

    The three parameter-setting calls happen once at publication and are
    billed like any owner call but never count as simulation actions.
    """
    contract = DatasetContract.deploy_and_publish(
        chain,
        registry,
        provider,
        link=f"data://{provider}/{ordinal}",
        required_license=DEFAULT_LICENSE,
        scenario=cfg.scenario,
        profit_margin_pct=cfg.resolved_margin_pct,
        access_fraction_pct=cfg.access_fraction_pct,
        renew_fraction_pct=cfg.renew_fraction_pct,
        token_store=store,
    )
    contract.set_registry_address(provider, registry)
    contract.set_profit_margin(provider, cfg.resolved_margin_pct)
    contract.set_multis(provider, cfg.access_fraction_pct, cfg.renew_fraction_pct)
    return contract


def build_start(cfg: SimConfig) -> tuple[ChainState, Registry]:
    """Funded accounts and the registry bootstrap: providers first, then users."""
    chain = ChainState(cfg.schedule, cfg.price)
    accounts = chain.create_accounts(cfg.population.n_accounts, PREFUND_WEI)
    authority = chain.create_named_account("authority", PREFUND_WEI)
    registry = Registry.deploy(chain, authority)
    for address in accounts[: cfg.population.max_providers]:
        registry.new_data_provider(authority, address)
    registry.register_new_users(authority, accounts[cfg.population.max_providers:], DEFAULT_LICENSE)
    return chain, registry


def simulate(cfg: SimConfig) -> Stream:
    """Draw the action stream of cfg; book nothing."""
    rng = random.Random(cfg.seed)
    draw = rng.random
    population = generate_population(cfg.population, rng)
    stream = Stream(cfg, population, [], [])
    actions, counts, ticker = stream.actions, stream.counts, cfg.action_ticker
    # The population lists its providers first. A requester at probability 0.0
    # could never request and would hold the queue forever, so they never join it.
    providers = population[: cfg.population.max_providers]
    requesters = [p for p in islice(population, len(providers), None) if p.current_prob > 0.0]
    # Provider i publishes dataset i; each update's action and its roll's probability, fixed per provider.
    updates = [((UPDATE, p.address, i), min(1.0, p.base_prob * cfg.update_multiplier)) for i, p in enumerate(providers)]
    # Slot i of rolling is requester i's token, in the token-id order settle mints in (nothing burns):
    # its holder while expired, None while cooling down. waking lists the slots that expire in a period.
    rolling: list[AgentProfile | None] = []
    waking: dict[int, list[int]] = {}
    renewals: dict[Address, tuple[int, tuple[str, Address, int]]] = {}  # holder -> (slot, renew action)
    published = 0
    next_requester = 0

    while len(actions) < ticker and len(counts) < MAX_PERIODS:
        period = len(counts)
        actions_at_start = len(actions)
        waking[period + ACCESS_PERIODS] = wake = []  # the slots that this period's actions park

        # Publish: the next provider in line rolls; the very first
        # publication of the run happens unconditionally.
        if published < len(providers):
            provider = providers[published]
            if not actions or draw() < provider.current_prob:
                actions.append((PUBLISH, provider.address, published))
                published += 1

        # Update: every provider with a published dataset rolls; the hits book in order until the ticker.
        hits = [update for update, prob in islice(updates, published) if draw() < prob]
        actions += hits[: ticker - len(actions)]

        # Request: the requester in line rolls; on decline the same
        # requester tries again next period. They have never requested,
        # so every dataset is open to them.
        if len(actions) < ticker and next_requester < len(requesters):
            requester = requesters[next_requester]
            if draw() < requester.current_prob:
                ordinal = rng.randrange(published)
                actions.append((REQUEST, requester.address, ordinal))
                renewals[requester.address] = (next_requester, (RENEW, requester.address, ordinal))
                rolling.append(None)
                wake.append(next_requester)
                next_requester += 1

        # Renew: each holder of an expired token rolls; the hits book in order until the ticker. A
        # holder's one token was granted or last renewed by their last action, so its expiry is their
        # cool-down of ACCESS_PERIODS periods.
        if len(actions) < ticker:
            for slot in waking.pop(period, ()):
                rolling[slot] = requesters[slot]
            hits = [h for h in rolling if h is not None and draw() < h.current_prob]
            for holder in hits[: ticker - len(actions)]:
                slot, renewal = renewals[holder.address]
                rolling[slot] = None
                wake.append(slot)
                decay_renewal_prob(holder)
                actions.append(renewal)

        counts.append(len(actions) - actions_at_start)
    return stream


def settle(cfg: SimConfig, stream: Stream, start: tuple[ChainState, Registry] | None = None) -> SimResult:
    """Run cfg by booking stream through the contract API, on a fork of start, a build_start pair,
    or on a fresh bootstrap. Only the economics of cfg and stream.config may differ (see Sharing)."""
    if _STREAM(cfg) != _STREAM(stream.config):
        raise ValueError("a stream settles only runs of its own seed, population, ticker and multiplier")
    if start is None:
        chain, registry = build_start(cfg)
    else:
        chain, registry = start
        users, providers = len(registry.users), len(registry.providers)
        if (users + providers, providers, chain.price, chain.schedule) != _START(cfg):
            raise ValueError("a start settles only runs of its own accounts, providers, price and gas schedule")
        chain = chain.fork()
        registry = registry.fork(chain)
    store = TokenStore()
    run = SimResult(cfg, Records(), [], chain, registry, store, stream.population, [])
    flat, datasets, receipts = run.records.flat, run.datasets, chain.receipts
    actions = iter(stream.actions)
    try:
        for period, count in enumerate(stream.counts):
            chain.period = period
            for kind, actor, ordinal in islice(actions, count):
                # Record each action as its kind, its receipt and its pool; a publication as its summed fees.
                if kind == PUBLISH:
                    contract = _publish_dataset(chain, registry, store, cfg, actor, ordinal + 1)
                    datasets.append(contract)
                    fee = contract.provider_cost_wei
                    receipt = Publication(period, actor, contract.contract_address, fee, chain.price.wei_to_usd(fee))
                else:
                    contract = datasets[ordinal]
                    if kind == UPDATE:
                        contract.update_data(actor)
                    elif kind == REQUEST:
                        request_access(actor, contract, quote_payment(contract, "access"))
                    else:
                        if not contract.holders[actor].compliance:
                            confirm_compliance(actor, contract)
                        renew_access_time(actor, contract, quote_payment(contract, "renewal"))
                    receipt = receipts[-1]
                flat += kind, receipt, contract.current_cost_wei
        period = len(stream.counts)
        run.series = [stats for stats, _ in period_books(run.records, stream.counts)]
        if len(run.records) < cfg.action_ticker:
            raise EngineError(f"no progress after {period} periods")
    except LedgerError as exc:
        raise EngineError(
            f"seed {cfg.seed}, scenario {cfg.scenario.value}, margin {cfg.resolved_margin_pct}, "
            f"access fraction {cfg.access_fraction_pct}, renew fraction {cfg.renew_fraction_pct}, "
            f"period {period}, action {len(run.records)}: {exc}"
        ) from exc
    return run


def run_simulation(cfg: SimConfig) -> SimResult:
    """Simulate cfg and settle its stream on a fresh bootstrap."""
    return settle(cfg, simulate(cfg))


def period_books(records: Records, counts: Iterable[int]) -> Iterator[tuple[PeriodStats, Iterable[list]]]:
    """Fold records, counts[k] of them in period k, into each period's totals and its contracts' rows [address,
    pool, cost, earnings, tokens, version] in publication order, which later periods change in place. Settle
    never burns, withdraws, destroys or relicenses, so a contract changes only at its own actions."""
    rows, records, pool, cost, earnings, tokens = {}, iter(records), 0, 0, 0, 0
    for period, count in enumerate(counts):
        for kind, r, after in islice(records, count):
            row = rows.get(r.contract) or rows.setdefault(r.contract, [r.contract, 0, 0, 0, 0, 0])  # its publication
            if kind == PUBLISH or kind == UPDATE:
                row[2] += r.gas_fee_wei
                row[5] += kind == UPDATE
                cost += r.gas_fee_wei
            else:
                row[3] += r.value_wei
                earnings += r.value_wei
                if kind == REQUEST:
                    row[4] += 1
                    tokens += 1
            pool += after - row[1]
            row[1] = after
        yield PeriodStats(period, pool, cost, earnings, earnings - cost, tokens, count), rows.values()


def break_even_period(result: SimResult) -> int | None:
    """First period whose cumulative profit is non-negative, if any."""
    for stats in result.series:
        if stats.profit_wei >= 0:
            return stats.period
    return None


def with_seed(cfg: SimConfig, seed: int) -> SimConfig:
    return replace(cfg, seed=seed)
