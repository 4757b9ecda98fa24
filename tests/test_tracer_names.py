"""perfbench's span timers wrap program names; each must still resolve.

A refactor that renames a traced function fails here, in the ordinary
test run, rather than making `perfbench/run.py --trace 1` exit 3. The
tracer module is loaded for its name tables and its run hook; nothing is
installed.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from incentiveledger import PopulationConfig, SimConfig, run_simulation

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    assert tracer.FUNCTIONS and tracer.METHODS
    for module_name, attr, span in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr, span)
    # The tracer reads methods from the class's own __dict__, as does its
    # live-token wrapper.
    methods = [*tracer.METHODS, ("incentiveledger.tokens", "TokenStore", "live_tokens", tracer.LIVE_TOKENS)]
    for module_name, class_name, attr, span in methods:
        cls = getattr(importlib.import_module(module_name), class_name)
        assert attr in cls.__dict__, (module_name, class_name, attr, span)


def test_the_run_hook_reads_a_settled_result():
    """The hook that counts a run's periods, actions, receipts and token events reads fields
    of SimResult by name, so renaming one would break a traced benchmark run."""
    cfg = SimConfig(action_ticker=30, population=PopulationConfig(n_accounts=20), seed=1)
    result = run_simulation(cfg)
    tracer = load_tracer().Tracer()  # built, never installed
    tracer._after_simulation((cfg,), {}, result)
    assert tracer.counters["engine.periods"] == len(result.series) > 0
    assert tracer.counters["engine.actions"] == len(result.records) == 30
