"""Period-loop engine: determinism, phase ordering, stop condition."""

from __future__ import annotations

import inspect
import random
import re
import tracemalloc
from collections import Counter
from dataclasses import astuple, replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import golden_config, report_text

from incentiveledger import (
    ACCESS_PERIODS,
    DEFAULT_LICENSE,
    ChainState,
    DatasetContract,
    PeriodStats,
    PopulationConfig,
    Registry,
    Scenario,
    SimConfig,
    break_even_period,
    decay_renewal_prob,
    generate_population,
    run_simulation,
    with_seed,
)
from incentiveledger import engine, tokens
from incentiveledger.agents import PROVIDER_PROB_MIN
from incentiveledger.chain import (ADD_DATA_REQUESTER, DEPLOYMENT, GWEI, PUBLISH_DATA, RENEW_TOKEN, SET_MULTIS,
                                   SET_PROFIT_MARGIN, SET_REGISTRY_ADDRESS, UPDATE_DATA, PriceModel, account_address,
                                   default_gas_schedule)
from incentiveledger.engine import PUBLISH, RENEW, REQUEST, UPDATE, build_start, settle, simulate
from incentiveledger.errors import ConfigError, EngineError, InsufficientFundsError
from incentiveledger.reporting import actions_csv, write_report, write_run_reports, write_seed_reports


def small_cfg(**overrides) -> SimConfig:
    base = dict(
        action_ticker=60,
        population=PopulationConfig(n_accounts=40),
        seed=3,
    )
    base.update(overrides)
    return SimConfig(**base)


def stream(result):
    return [(kind, r.caller, r.contract, r.period) for kind, r, _ in result.records]


def test_the_population_ledger_and_registry_share_each_address():
    # The same string object, not an equal copy: a dict returns its own key for an equal one.
    cfg = small_cfg()
    start = build_start(cfg)  # a sweep builds its start before any seed is simulated
    for result in (run_simulation(cfg), settle(cfg, simulate(cfg), start)):
        registry = result.registry
        for keys in (result.chain.accounts, result.chain.funding, [*registry.providers, *registry.users]):
            own = {key: key for key in keys}
            assert all(own[p.address] is p.address for p in result.population)


def test_run_starts_with_a_forced_publication():
    result = run_simulation(small_cfg(action_ticker=1))
    assert len(result.records) == 1
    [(kind, only, _)] = result.records
    assert kind == PUBLISH
    assert only.period == 0 and report_text(actions_csv(result)).splitlines()[1].startswith("0,0,publish,")
    assert only.caller == result.population[0].address
    assert len(result.series) == 1
    assert result.series[0].actions_this_period == 1


def test_run_stops_exactly_at_the_action_ticker():
    result = run_simulation(small_cfg())
    assert len(result.records) == 60
    assert [line.split(",")[0] for line in report_text(actions_csv(result)).splitlines()[1:]] == [
        str(index) for index in range(60)]
    assert sum(s.actions_this_period for s in result.series) == 60
    periods = [r.period for _, r, _ in result.records]
    assert periods == sorted(periods)
    assert periods[-1] == result.series[-1].period


def test_same_seed_reproduces_the_run_exactly():
    a = run_simulation(small_cfg())
    b = run_simulation(small_cfg())
    assert stream(a) == stream(b)
    assert [r.value_wei for _, r, _ in a.records] == [r.value_wei for _, r, _ in b.records]
    assert a.chain.accounts == b.chain.accounts
    c = run_simulation(with_seed(small_cfg(), 4))
    assert stream(a) != stream(c)


def test_action_stream_ignores_scenario_and_margin():
    # Same seed, different economics: who acts when must not change, so
    # scenario comparisons are paired and exact.
    runs = {
        s: run_simulation(small_cfg(scenario=s))
        for s in (Scenario.NO_COMPENSATION, Scenario.COST_RECOVERY, Scenario.PROFIT)
    }
    streams = [stream(r) for r in runs.values()]
    assert streams[0] == streams[1] == streams[2]


def test_economics_change_payments_only():
    # The claim that settling a sweep cell from another cell's trace rests
    # on: scenario, margin, fractions and gas price move no action, token
    # or gas figure, and every wei fee scales exactly with the gas price.
    a = run_simulation(small_cfg())
    b = run_simulation(small_cfg(
        scenario=Scenario.PROFIT, profit_margin_pct=250, access_fraction_pct=10, renew_fraction_pct=7,
        price=replace(a.config.price, gas_price_wei=30 * 10**9),
    ))
    assert [r.value_wei for _, r, _ in a.records] != [r.value_wei for _, r, _ in b.records]
    assert stream(a) == stream(b)
    assert report_text(a.token_store.table_csv()) == report_text(b.token_store.table_csv())
    assert a.token_store.events == b.token_store.events
    assert [r.gas_used for r in a.chain.receipts] == [r.gas_used for r in b.chain.receipts]
    pa, pb = a.config.price.gas_price_wei, b.config.price.gas_price_wei
    fees = [
        ([r.gas_fee_wei for r in x.chain.receipts], [r.gas_fee_wei for _, r, _ in x.records],
         [s.provider_cost_wei for s in x.series],
         [row[2] for _, rows in engine.period_books(x.records, [s.actions_this_period for s in x.series])
          for row in rows])
        for x in (a, b)
    ]
    for fees_a, fees_b in zip(*fees):
        assert len(fees_a) == len(fees_b)
        assert all(fa * pb == fb * pa for fa, fb in zip(fees_a, fees_b))


@pytest.mark.parametrize("scenario", [Scenario.NO_COMPENSATION, Scenario.PROFIT])
def test_the_period_fold_matches_live_contracts_at_each_period_end(scenario):
    # A differential test with live contracts as the oracle. The loop stops the moment the
    # ticker is reached, so a run whose ticker is the action count through period k books
    # exactly those actions and ends with its contracts as they stood after period k.
    cfg = small_cfg(scenario=scenario, action_ticker=60, seed=10,
                    population=PopulationConfig(n_accounts=30, max_providers=3))
    full = run_simulation(cfg)
    counts = [s.actions_this_period for s in full.series]
    assert {kind for kind, _, _ in full.records} == {PUBLISH, UPDATE, REQUEST, RENEW} and len(full.datasets) == 3
    booked = 0
    books = engine.period_books(full.records, counts)
    for (stats, rows), count, series in zip(books, counts, full.series, strict=True):
        assert stats == series
        booked += count
        if not count:
            continue
        live = [(c.contract_address, c.current_cost_wei, c.provider_cost_wei, c.provider_earnings_wei,
                 len(c.holders), c.meta_version) for c in run_simulation(replace(cfg, action_ticker=booked)).datasets]
        assert [tuple(row) for row in rows] == live, stats.period
        totals = [sum(column) for column in list(zip(*live))[1:5]]
        assert totals == [stats.current_cost_wei, stats.provider_cost_wei, stats.provider_earnings_wei,
                          stats.active_requesters], stats.period
    assert booked == len(full.records)


def test_each_record_points_at_its_own_receipt():
    """A record copies no receipt field: an update, request or renewal record references the very
    receipt object at its own log position, and a publication's holds its five calls' summed fee."""
    cfg = small_cfg(action_ticker=120, seed=10, population=PopulationConfig(n_accounts=30, max_providers=3))
    start = build_start(cfg)
    position = len(start[0].receipts)  # the actions' receipts follow the bootstrap's
    result = settle(cfg, simulate(cfg), start)
    receipts, price = result.chain.receipts, result.config.price
    functions = {UPDATE: UPDATE_DATA, REQUEST: ADD_DATA_REQUESTER, RENEW: RENEW_TOKEN}
    assert {kind for kind, _, _ in result.records} == {PUBLISH, *functions}
    for kind, r, pool in result.records:
        if kind == PUBLISH:
            five = receipts[position:position + 5]
            assert [x.function for x in five] == [DEPLOYMENT, PUBLISH_DATA, SET_REGISTRY_ADDRESS, SET_PROFIT_MARGIN,
                                                  SET_MULTIS]
            fee = sum(x.gas_fee_wei for x in five)
            assert r == (five[0].period, five[0].caller, five[0].contract, fee, price.wei_to_usd(fee), 0)
            position += 5
        else:
            assert r is receipts[position] and r.function == functions[kind], position
            position += 1
    assert position == len(receipts)


def test_the_records_cost_at_most_32_bytes_per_action():
    """A record is three references in one flat list. tracemalloc charges settle's own lines, the
    records among them, at most 32 B per action of a 2,000-action run; an object per action cost
    about 105 B. The pool ints a record points at are charged to the contract that computes them."""
    cfg = SimConfig(action_ticker=2_000, seed=0)
    stream, start = simulate(cfg), build_start(cfg)
    lines, first = inspect.getsourcelines(engine.settle)
    tracemalloc.start()
    try:
        result = settle(cfg, stream, start)
        snapshot = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, engine.__file__)])
    finally:
        tracemalloc.stop()
    charged = sum(stat.size for stat in snapshot.statistics("lineno")
                  if first <= stat.traceback[0].lineno < first + len(lines))
    assert len(result.records) == 2_000
    assert charged <= 32 * 2_000, charged / 2_000


def test_a_trace_settles_only_runs_of_its_own_stream():
    start = build_start(small_cfg())
    stream = simulate(small_cfg())
    for other in (with_seed(small_cfg(), 4), small_cfg(action_ticker=59), small_cfg(update_multiplier=6)):
        with pytest.raises(ValueError, match="stream"):
            settle(other, stream, start)


def test_a_start_settles_only_runs_of_its_own_price_and_gas_schedule():
    base = small_cfg()
    start, stream = build_start(base), simulate(base)
    for other in (replace(base, price=PriceModel(gas_price_wei=GWEI)),
                  replace(base, schedule=replace(base.schedule, per_requester_update_gas=1))):
        with pytest.raises(ValueError, match="start"):
            settle(other, stream, start)


def test_no_compensation_scenario_never_collects_payments():
    result = run_simulation(small_cfg(scenario=Scenario.NO_COMPENSATION))
    assert all(r.value_wei == 0 for _, r, _ in result.records)
    assert all(s.provider_earnings_wei == 0 for s in result.series)
    assert break_even_period(result) is None


def test_profit_margin_weakly_improves_profit_pointwise():
    cost = run_simulation(small_cfg(scenario=Scenario.COST_RECOVERY))
    profit = run_simulation(small_cfg(scenario=Scenario.PROFIT))
    assert len(cost.series) == len(profit.series)
    for s2, s3 in zip(cost.series, profit.series):
        assert s3.profit_wei >= s2.profit_wei
    be2, be3 = break_even_period(cost), break_even_period(profit)
    assert (be3 if be3 is not None else float("inf")) <= (be2 if be2 is not None else float("inf"))


def test_break_even_is_first_nonnegative_profit_period():
    def fake(profits):
        series = [
            PeriodStats(period=i, current_cost_wei=0, provider_cost_wei=0,
                        provider_earnings_wei=0, profit_wei=p,
                        active_requesters=0, actions_this_period=0)
            for i, p in enumerate(profits)
        ]
        return SimpleNamespace(series=series)

    assert break_even_period(fake([-5, -1, 0, 3])) == 2
    assert break_even_period(fake([-5, -1, -4])) is None
    assert break_even_period(fake([0])) == 0
    assert break_even_period(fake([])) is None


def test_renewals_respect_cooldown_and_expiry():
    result = run_simulation(small_cfg(action_ticker=120, population=PopulationConfig(n_accounts=80), seed=5))
    last_action: dict = {}
    first_request: dict = {}
    last_renewal: dict = {}
    saw_renewal = False
    for kind, r, _ in result.records:
        if kind == RENEW:
            saw_renewal = True
            # Cool-down: a renewal never follows the same actor's previous
            # action by fewer than ACCESS_PERIODS periods.
            assert r.period - last_action[r.caller] >= ACCESS_PERIODS
            key = (r.caller, r.contract)
            start = last_renewal.get(key, first_request[key])
            # Expiry: each renewal starts after the previous window ended.
            assert r.period >= start + ACCESS_PERIODS
            last_renewal[key] = r.period
        elif kind == REQUEST:
            first_request.setdefault((r.caller, r.contract), r.period)
        last_action[r.caller] = r.period
    assert saw_renewal


def test_requesters_enter_in_account_order_providers_publish_once():
    result = run_simulation(small_cfg(action_ticker=100, population=PopulationConfig(n_accounts=120), seed=9))
    requesters = [r.caller for kind, r, _ in result.records if kind == REQUEST]
    assert requesters == sorted(requesters)
    assert len(set(requesters)) == len(requesters)
    publishers = [r.caller for kind, r, _ in result.records if kind == PUBLISH]
    assert len(set(publishers)) == len(publishers)
    assert len(result.datasets) == len(publishers)


def test_a_zero_probability_requester_does_not_hold_the_queue():
    # Min-max normalization pins one requester of every draw to exactly
    # 0.0; at default settings seed 2 reaches them after 31 requests.
    result = run_simulation(with_seed(SimConfig(), 2))
    [stuck] = [p.address for p in result.population if p.base_prob == 0.0]
    requesters = [r.caller for kind, r, _ in result.records if kind == REQUEST]
    assert stuck not in requesters and max(requesters) > stuck
    assert len(requesters) > 31
    assert len(result.series) < 200


def test_update_multiplier_saturates_to_an_update_every_period():
    # Provider probability is at least 0.01; multiplied by 100 the update
    # roll always succeeds once something is published.
    result = run_simulation(small_cfg(update_multiplier=100))
    update_periods = {r.period for kind, r, _ in result.records if kind == UPDATE}
    full_periods = {s.period for s in result.series[:-1]}  # last one may be cut mid-phase
    assert full_periods <= update_periods | {result.series[-1].period}


def roster_simulate(cfg: SimConfig) -> engine.Stream:
    """The draw stream's oracle: the per-token roster loop that simulate replaced, which
    draws each roll and books each hit one at a time, testing every token's expiry."""
    rng = random.Random(cfg.seed)
    draw = rng.random
    population = generate_population(cfg.population, rng)
    result = engine.Stream(cfg, population, [], [])
    actions, counts, ticker = result.actions, result.counts, cfg.action_ticker
    providers = population[: cfg.population.max_providers]
    requesters = [p for p in population[len(providers):] if p.current_prob > 0.0]
    roster = []  # [expiry, holder, dataset ordinal] per token, in request order
    published = next_requester = 0
    while len(actions) < ticker and len(counts) < engine.MAX_PERIODS:
        period = len(counts)
        actions_at_start = len(actions)
        if published < len(providers):
            provider = providers[published]
            if not actions or draw() < provider.current_prob:
                actions.append((PUBLISH, provider.address, published))
                published += 1
        for ordinal, owner in enumerate(providers[:published]):
            if len(actions) >= ticker:
                break
            if draw() < min(1.0, owner.base_prob * cfg.update_multiplier):
                actions.append((UPDATE, owner.address, ordinal))
        if len(actions) < ticker and next_requester < len(requesters):
            requester = requesters[next_requester]
            if draw() < requester.current_prob:
                ordinal = rng.randrange(published)
                actions.append((REQUEST, requester.address, ordinal))
                roster.append([period + ACCESS_PERIODS, requester, ordinal])
                next_requester += 1
        if len(actions) < ticker:
            for token in roster:
                if token[0] > period:
                    continue
                holder = token[1]
                if draw() < holder.current_prob:
                    token[0] = period + ACCESS_PERIODS
                    decay_renewal_prob(holder)
                    actions.append((RENEW, holder.address, token[2]))
                    if len(actions) >= ticker:
                        break
        counts.append(len(actions) - actions_at_start)
    return result


def drawn(result: engine.Stream) -> tuple:
    return result.actions, result.counts, [(p.current_prob, p.renewals) for p in result.population]


def population_cfg(accounts: int, providers: int, decay: float, prob_max: float) -> PopulationConfig:
    return PopulationConfig(n_accounts=accounts, max_providers=min(providers, accounts - 1), decay=decay,
                            provider_prob_max=prob_max)


populations = st.builds(population_cfg, st.integers(2, 60), st.integers(1, 5),
                        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.floats(PROVIDER_PROB_MIN, 1.0))

# The two benchmark streams, at seed 0.
BENCHMARK_STREAMS = {name: golden_config(name) for name in ("scale-20k", "update-heavy")}


@settings(max_examples=60, deadline=None)
@given(population=populations, actions=st.integers(1, 3_000), multiplier=st.integers(1, 10),
       seed=st.integers(0, 2**32))
def test_simulate_draws_what_the_roster_loop_draws(population, actions, multiplier, seed):
    cfg = SimConfig(action_ticker=actions, update_multiplier=multiplier, seed=seed, population=population)
    assert drawn(simulate(cfg)) == drawn(roster_simulate(cfg))


@pytest.mark.parametrize("name", BENCHMARK_STREAMS)
def test_a_benchmark_stream_is_what_the_roster_loop_draws(name):
    cfg = BENCHMARK_STREAMS[name]
    assert drawn(simulate(cfg)) == drawn(roster_simulate(cfg))


@settings(max_examples=40, deadline=None)
@given(population=populations, short=st.integers(1, 1_500), extra=st.integers(1, 1_500),
       multiplier=st.integers(1, 10), seed=st.integers(0, 2**32))
def test_a_shorter_ticker_draws_a_prefix_of_the_stream(population, short, extra, multiplier, seed):
    # Rolls drawn past the last action are never read: a longer run only appends.
    cfg = SimConfig(action_ticker=short + extra, update_multiplier=multiplier, seed=seed, population=population)
    prefix, whole = simulate(replace(cfg, action_ticker=short)), simulate(cfg)
    assert prefix.actions == whole.actions[:short]
    last = len(prefix.counts) - 1
    assert prefix.counts[:last] == whole.counts[:last] and prefix.counts[last] <= whole.counts[last]


def test_each_renewal_decays_its_holder_once(monkeypatch):
    decayed = []

    def counted(holder):
        decayed.append(holder.address)
        decay_renewal_prob(holder)

    whole = simulate(SimConfig(action_ticker=1_000))
    periods = [period for period, count in enumerate(whole.counts) for _ in range(count)]
    # A ticker between two renewals of one period leaves a hit past the last action.
    cut = next(n for n in range(1, 1_000) if periods[n - 1] == periods[n]
               and whole.actions[n - 1][0] == whole.actions[n][0] == RENEW)
    monkeypatch.setattr(engine, "decay_renewal_prob", counted)
    for cfg in (SimConfig(action_ticker=cut), BENCHMARK_STREAMS["scale-20k"]):
        decayed.clear()
        result = simulate(cfg)
        renewals = Counter(actor for kind, actor, _ in result.actions if kind == RENEW)
        assert len(decayed) == renewals.total() > 0
        assert Counter(decayed) == renewals == {p.address: p.renewals for p in result.population if p.renewals}


def test_ledger_failures_carry_the_engine_position():
    # At 20,000 gwei the authority's prefund still registers all 40
    # accounts, but the first publication costs the provider 136 ether.
    cfg = small_cfg(price=PriceModel(gas_price_wei=20_000 * GWEI))
    with pytest.raises(EngineError, match=r"period 0, action 0"):
        run_simulation(cfg)


# Runs whose provider runs dry on an update: its earnings stay on its contract.
# Each fails with its position, the provider's balance and the update's fee.
DRY_PROVIDER = [
    (dict(action_ticker=20_000, population=PopulationConfig(n_accounts=20_000, max_providers=2), seed=37),
     "seed 37, scenario 2, margin 100, access fraction 5, renew fraction 5, period 2282, action 18135: "
     "acct-0000 holds 154161064000000000 wei, needs 325702872000000000 for updateData"),
    (dict(action_ticker=20_000, population=PopulationConfig(n_accounts=20_000), seed=1),
     "seed 1, scenario 2, margin 100, access fraction 5, renew fraction 5, period 2143, action 16612: "
     "acct-0000 holds 173428840000000000 wei, needs 532729224000000000 for updateData"),
    (dict(action_ticker=5_000, population=PopulationConfig(n_accounts=50), seed=0),
     "seed 0, scenario 2, margin 100, access fraction 5, renew fraction 5, period 15530, action 4565: "
     "acct-0000 holds 29792080000000000 wei, needs 30604536000000000 for updateData"),
]


@pytest.mark.parametrize("settings, line", DRY_PROVIDER, ids=["seed-37", "seed-1", "50-accounts"])
def test_a_dry_provider_fails_with_the_same_line(settings, line):
    with pytest.raises(EngineError) as excinfo:
        run_simulation(SimConfig(**settings))
    assert str(excinfo.value) == line


def test_the_bootstrap_books_what_one_registration_at_a_time_books():
    """build_start's batched registrations against the per-user path on a fresh chain."""
    cfg = small_cfg(population=PopulationConfig(n_accounts=2_000, max_providers=3))
    chain, registry = build_start(cfg)
    reference = ChainState(cfg.schedule, cfg.price)
    accounts = [reference.create_named_account(account_address(i), engine.PREFUND_WEI) for i in range(2_000)]
    authority = reference.create_named_account("authority", engine.PREFUND_WEI)
    one_by_one = Registry.deploy(reference, authority)
    for address in accounts[:3]:
        one_by_one.new_data_provider(authority, address)
    for address in accounts[3:]:
        one_by_one.register_new_user(authority, address, DEFAULT_LICENSE)
    assert len(chain.receipts) == 2_001
    assert [astuple(r) for r in chain.receipts] == [astuple(r) for r in reference.receipts]
    assert list(chain.accounts.items()) == list(reference.accounts.items())
    assert list(chain.funding.items()) == list(reference.funding.items())
    assert list(registry.users.items()) == list(one_by_one.users.items())
    assert registry.providers == one_by_one.providers


def test_a_20k_bootstrap_logs_one_receipt_object_for_its_batch():
    """The deployment, one receipt per provider and one shared by every user's registration:
    the log still counts every call, and transactions.csv numbers each by its position."""
    providers = 3
    chain, _ = build_start(small_cfg(population=PopulationConfig(n_accounts=20_000, max_providers=providers)))
    assert len(chain.receipts) == 1 + 20_000
    assert len({id(r) for r in chain.receipts}) == 2 + providers
    rows = report_text(chain.log_csv()).splitlines()[1:]
    assert len(rows) == len(chain.receipts)
    batch = rows[1 + providers:]
    assert [row.split(",", 1)[0] for row in batch] == [str(index) for index in range(1 + providers, 20_001)]
    assert len({row.split(",", 1)[1] for row in batch}) == 1 and ",registerNewUser," in batch[0]


def test_a_settled_run_quotes_each_payment_once(monkeypatch):
    # The engine quotes each payment once, through quote_payment; the contract's quote
    # rule runs twice per payment, for that quote and for the gateway's exact-value check.
    calls = {"quote_payment": 0, "quote": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    quote_payment = counted("quote_payment", engine.quote_payment)
    monkeypatch.setattr(engine, "quote_payment", quote_payment)
    monkeypatch.setattr(tokens, "quote_payment", quote_payment)
    monkeypatch.setattr(DatasetContract, "quote", counted("quote", DatasetContract.quote))
    payments = sum(kind in (REQUEST, RENEW) for kind, _, _ in run_simulation(SimConfig()).records)
    assert payments > 0
    assert calls == {"quote_payment": payments, "quote": 2 * payments}


def test_a_stalled_run_names_itself(monkeypatch):
    monkeypatch.setattr(engine, "MAX_PERIODS", 2)
    with pytest.raises(EngineError) as excinfo:
        run_simulation(small_cfg(scenario=Scenario.PROFIT, renew_fraction_pct=7))
    assert re.fullmatch(
        r"seed 3, scenario 3, margin 200, access fraction 5, renew fraction 7, "
        r"period 2, action \d+: no progress after 2 periods",
        str(excinfo.value),
    )


def test_config_validation():
    for overrides in (
        {"action_ticker": 0},
        {"update_multiplier": 0},
        {"access_fraction_pct": 0},
        {"renew_fraction_pct": 101},
        {"access_fraction_pct": 5.0},  # floats are rejected, even whole ones
        {"access_fraction_pct": True},  # and bools, which config.txt would write as True
        {"renew_fraction_pct": True},
        {"action_ticker": True},
        {"update_multiplier": True},
        {"seed": True},
        {"action_ticker": 5.5},  # a count is an int: config.txt would write actions=5.5
        {"update_multiplier": 2.5},
        {"seed": 1.5},
        {"scenario": 2},  # a Scenario, not its number
        {"profit_margin_pct": 99},
        {"scenario": Scenario.PROFIT, "profit_margin_pct": 100},
        {"scenario": Scenario.COST_RECOVERY, "profit_margin_pct": 150},
    ):
        with pytest.raises(ConfigError):  # on construction: no invalid config exists
            small_cfg(**overrides)
    for counts in ({"n_accounts": 20.5}, {"max_providers": 1.5}, {"n_accounts": True}, {"max_providers": True},
                   {"provider_prob_max": True}):
        with pytest.raises(ConfigError):  # a population checks its own settings, and refuses a bool
            PopulationConfig(**counts)
    for price in ({"eth_usd": True}, {"gas_price_wei": True}, {"gas_price_wei": True, "eth_usd": True}):
        with pytest.raises(ConfigError):  # and so does a price model
            PriceModel(**price)
    # A float setting may be given as an int; config.txt writes it back as it was given.
    assert engine.settings(small_cfg(price=PriceModel(eth_usd=1716)))["eth-usd"] == 1716


def test_margin_resolution_defaults_per_scenario():
    assert small_cfg().resolved_margin_pct == 100
    assert small_cfg(scenario=Scenario.PROFIT).resolved_margin_pct == 200
    assert small_cfg(scenario=Scenario.PROFIT, profit_margin_pct=150).resolved_margin_pct == 150


def test_with_seed_rewires_engine_and_population_seeds():
    cfg = small_cfg()
    assert with_seed(cfg, 42) == replace(cfg, seed=42)
    assert cfg.seed == 3  # original untouched


def report_bytes(result, out) -> dict[str, bytes]:
    write_run_reports(result, out)
    write_seed_reports(result, out)
    write_report(out / "registry.csv", result.registry.snapshot_csv())
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("spoil", ["fail", "tamper"])
def test_a_spoiled_run_leaves_the_shared_start_intact(tmp_path, monkeypatch, spoil):
    # Run A forks the shared start, then either fails part-way or has its
    # state tampered with after it finishes. Run B of the same seed forks
    # the same start and must still match a direct run byte for byte.
    cfg = small_cfg(scenario=Scenario.PROFIT)
    start = build_start(cfg)
    if spoil == "fail":
        real, calls = engine.quote_payment, []

        def quote_then_fail(contract, kind):
            calls.append(kind)
            if len(calls) == 3:
                raise InsufficientFundsError("injected")
            return real(contract, kind)

        monkeypatch.setattr(engine, "quote_payment", quote_then_fail)
        with pytest.raises(EngineError, match="injected"):
            settle(cfg, simulate(cfg), start)
        monkeypatch.undo()
    else:
        spoiled = settle(cfg, simulate(cfg), start)
        for address in spoiled.chain.accounts:
            spoiled.chain.accounts[address] = 0
        spoiled.chain.receipts.clear()
        spoiled.registry.users.clear()
        spoiled.registry.providers.clear()
        for profile in spoiled.population:
            profile.current_prob, profile.renewals = 1.0, 9

    checkpoint, checkpoint_registry = start
    fresh, fresh_registry = build_start(cfg)
    assert len(checkpoint.receipts) == len(fresh.receipts)
    assert checkpoint.accounts == fresh.accounts
    assert checkpoint_registry.users == fresh_registry.users
    shared_run = report_bytes(settle(cfg, simulate(cfg), start), tmp_path / "shared")
    assert shared_run == report_bytes(run_simulation(cfg), tmp_path / "direct")


UPDATE_GAS = default_gas_schedule().gas_for(UPDATE_DATA)


@pytest.mark.parametrize("providers", [1, 2])
def test_settle_reads_only_the_trace_action_stream(tmp_path, providers):
    # A stream holds draws, not books: a second cell settled from it, after
    # the first cell's reports are written, still writes a direct run's
    # bytes, and its contracts end with the first cell's holders in their
    # own dicts.
    base = small_cfg(population=PopulationConfig(n_accounts=40, max_providers=providers))
    start = build_start(base)
    stream = simulate(base)
    trace = settle(base, stream, start)
    report_bytes(trace, tmp_path / "trace")
    cfg = replace(base, scenario=Scenario.PROFIT, access_fraction_pct=10)
    settled = settle(cfg, stream, start)
    assert report_bytes(settled, tmp_path / "settled") == report_bytes(run_simulation(cfg), tmp_path / "direct")
    assert len(trace.datasets) == providers
    assert any(r.function == UPDATE_DATA and r.gas_used > UPDATE_GAS for r in settled.chain.receipts)  # notified
    for mine, theirs in zip(settled.datasets, trace.datasets, strict=True):
        assert mine.holders is not theirs.holders
        assert list(mine.holders) == list(theirs.holders)


def test_a_new_draw_brings_its_own_population_and_registry(tmp_path):
    # The same seed with other accounts, then other providers, is a new
    # draw and a new bootstrap; settle refuses the start of the previous
    # one, and a start built for each gives a direct run's bytes,
    # population.csv and registry.csv included.
    base = small_cfg()
    cfgs = [
        base,
        replace(base, population=replace(base.population, n_accounts=50)),
        replace(base, population=replace(base.population, max_providers=2)),
    ]
    stale = build_start(base)
    for i, cfg in enumerate(cfgs):
        if i:
            with pytest.raises(ValueError, match="start"):
                settle(cfg, simulate(cfg), stale)
        shared_run = report_bytes(settle(cfg, simulate(cfg), build_start(cfg)), tmp_path / f"shared-{i}")
        direct_run = report_bytes(run_simulation(cfg), tmp_path / f"direct-{i}")
        for name in ("population.csv", "registry.csv"):
            assert shared_run[name] == direct_run[name], (i, name)
        assert shared_run == direct_run


# One record of each per-event or per-account kind that a run keeps, and each ledger object.
RECORDS = {
    "TxReceipt": lambda run: run.chain.receipts[-1],
    "Records": lambda run: run.records,
    "Publication": lambda run: run.records.flat[1],
    "PeriodStats": lambda run: run.series[-1],
    "AccessToken": lambda run: next(iter(run.token_store.tokens.values())),
    "TokenEvent": lambda run: run.token_store.events[-1],
    "AgentProfile": lambda run: run.population[-1],
    "ChainState": lambda run: run.chain,
    "Registry": lambda run: run.registry,
    "DatasetContract": lambda run: run.datasets[-1],
    "TokenStore": lambda run: run.token_store,
    "SimResult": lambda run: run,
}


@pytest.mark.parametrize("kind", RECORDS)
def test_records_reject_an_attribute_they_do_not_declare(kind):
    # A misspelt field must fail at the assignment, not become a new
    # attribute that nothing reads: the renew phase reads current_prob.
    record = RECORDS[kind](run_simulation(small_cfg()))
    assert type(record).__name__ == kind
    with pytest.raises(AttributeError):
        record.curent_prob = 0.0
