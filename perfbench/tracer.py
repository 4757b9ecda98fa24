"""Span timers installed around incentiveledger's layer boundaries.

The program is never edited: `install` replaces the attributes that
callers resolve at call time (module globals that other modules imported
by name, and class attributes) with timing wrappers. Spans are aggregated
per (name, parent) as they close, so memory stays bounded however many
calls a run makes. A span's self time is its duration minus the time of
the spans it directly contains.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute, span name) for module-level functions. Each entry is
# the binding a caller actually resolves: engine imports the agents and
# tokens functions by name, cli imports run_simulation and
# write_run_reports by name, and write_run_reports finds its builders
# through the reporting module's globals.
FUNCTIONS = [
    ("incentiveledger.cli", "build_sim_config", "cli.build_sim_config"),
    ("incentiveledger.cli", "run_simulation", "engine.run_simulation"),
    ("incentiveledger.engine", "run_simulation", "engine.run_simulation"),
    ("incentiveledger.cli", "write_run_reports", "reporting.write_run_reports"),
    ("incentiveledger.engine", "generate_population", "agents.generate_population"),
    ("incentiveledger.engine", "decay_renewal_prob", "agents.decay_renewal_prob"),
    ("incentiveledger.engine", "request_access", "tokens.request_access"),
    ("incentiveledger.engine", "quote_payment", "tokens.quote_payment"),
    ("incentiveledger.tokens", "quote_payment", "tokens.quote_payment"),
    ("incentiveledger.engine", "confirm_compliance", "tokens.confirm_compliance"),
    ("incentiveledger.engine", "renew_access_time", "tokens.renew_access_time"),
    ("incentiveledger.reporting", "summarize", "reporting.summarize"),
    ("incentiveledger.reporting", "reconcile", "reporting.reconcile"),
    ("incentiveledger.reporting", "actions_csv", "reporting.build.actions"),
    ("incentiveledger.reporting", "periods_csv", "reporting.build.periods"),
    ("incentiveledger.reporting", "contracts_csv", "reporting.build.contracts"),
    ("incentiveledger.reporting", "profit_series_csv", "reporting.build.profit"),
    ("incentiveledger.reporting", "cost_overlay_csv", "reporting.build.cost_overlay"),
    ("incentiveledger.reporting", "requester_costs_csv", "reporting.build.requester_costs"),
    ("incentiveledger.reporting", "top_requesters_csv", "reporting.build.top_requesters"),
    ("incentiveledger.reporting", "cost_distribution_csv", "reporting.build.cost_distribution"),
    ("incentiveledger.reporting", "population_csv", "reporting.build.population"),
    ("incentiveledger.reporting", "summary_text", "reporting.build.other"),
    ("incentiveledger.reporting", "summary_csv", "reporting.build.other"),
    ("incentiveledger.reporting", "config_text", "reporting.build.other"),
]

# (module, class, attribute, span name) for methods.
METHODS = [
    ("incentiveledger.chain", "ChainState", "execute", "chain.execute"),
    ("incentiveledger.chain", "ChainState", "create_accounts", "chain.create_accounts"),
    ("incentiveledger.chain", "ChainState", "log_csv", "reporting.build.transactions"),
    ("incentiveledger.registry", "Registry", "register_new_user", "registry.bootstrap"),
    ("incentiveledger.registry", "Registry", "new_data_provider", "registry.bootstrap"),
    ("incentiveledger.registry", "Registry", "snapshot_csv", "reporting.build.registry"),
    ("incentiveledger.dataset", "DatasetContract", "deploy_and_publish", "dataset.deploy_and_publish"),
    ("incentiveledger.dataset", "DatasetContract", "update_data", "dataset.update_data"),
    ("incentiveledger.tokens", "TokenStore", "invalidate_compliance", "tokens.invalidate_compliance"),
    ("incentiveledger.tokens", "TokenStore", "table_csv", "reporting.build.tokens"),
]

LIVE_TOKENS = "tokens.live_tokens"


class Tracer:
    def __init__(self) -> None:
        # (name, parent) -> [calls, self seconds, busy seconds]; busy counts
        # only the outermost span of a name, so recursion is not doubled.
        self.spans: dict[tuple[str, str], list] = {}
        self._stack: list[list] = []  # [name, seconds spent in child spans]
        self._depth: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._streams: set[tuple] = set()

    def _close(self, name: str, parent: str, seconds: float, child: float, outermost: bool) -> None:
        entry = self.spans.get((name, parent))
        if entry is None:
            entry = self.spans[(name, parent)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += seconds - child
        if outermost:
            entry[2] += seconds
        if self._stack:
            self._stack[-1][1] += seconds

    def wrap(self, name: str, fn, on_return=None):
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            level = depth.get(name, 0)
            depth[name] = level + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                stack.pop()
                depth[name] = level
                self._close(name, parent, seconds, frame[1], level == 0)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def wrap_live_tokens(self, fn):
        """Time each step of the live-token generator, which interleaves
        with its caller's loop, and count the tokens it yields."""
        stack, clock, counters = self._stack, time.perf_counter, self.counters

        @functools.wraps(fn)
        def live_tokens(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            inner = fn(*args, **kwargs)
            seconds = 0.0
            yielded = 0
            try:
                while True:
                    start = clock()
                    try:
                        token = next(inner)
                    except StopIteration:
                        seconds += clock() - start
                        return
                    seconds += clock() - start
                    yielded += 1
                    yield token
            finally:
                inner.close()
                self._close(LIVE_TOKENS, parent, seconds, 0.0, True)
                counters["tokens.live_tokens.yielded"] = counters.get("tokens.live_tokens.yielded", 0) + yielded
                counters["tokens.live_tokens.peak"] = max(counters.get("tokens.live_tokens.peak", 0), yielded)

        return live_tokens

    def _count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _after_simulation(self, args, kwargs, result) -> None:
        cfg = args[0] if args else kwargs["cfg"]
        # The README's determinism contract: the action stream depends on
        # the seed, the action ticker, the update multiplier and the
        # population, never on scenario, margin or fractions.
        self._streams.add((cfg.seed, cfg.action_ticker, cfg.update_multiplier, cfg.population))
        self._count("engine.periods", len(result.series))
        self._count("engine.actions", len(result.records))
        self._count("chain.receipts", len(result.chain.receipts))
        self._count("tokens.events", len(result.token_store.events))

    def install(self) -> None:
        for module_name, attr, name in FUNCTIONS:
            module = importlib.import_module(module_name)
            hook = self._after_simulation if name == "engine.run_simulation" else None
            setattr(module, attr, self.wrap(name, getattr(module, attr), hook))
        for module_name, class_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(name, raw))
        store = importlib.import_module("incentiveledger.tokens").TokenStore
        store.live_tokens = self.wrap_live_tokens(store.__dict__["live_tokens"])

    def report(self) -> dict:
        return {
            "spans": [[name, parent, *values] for (name, parent), values in sorted(self.spans.items())],
            "counters": {**self.counters, "engine.streams": len(self._streams)},
        }


def install_or_exit() -> Tracer:
    tracer = Tracer()
    try:
        tracer.install()
    except (AttributeError, KeyError, ImportError) as exc:
        sys.stderr.write(f"perfbench: cannot install span timers: {exc!r}\n")
        sys.exit(3)
    return tracer
