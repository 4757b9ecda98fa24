"""One benchmark child process: run one incentiveledger command, or only set up.

    python3 perfbench/child.py RESULT.json [--trace] [--seed-offset N] -- CLI ARGS...
    python3 perfbench/child.py RESULT.json --probe

It records, on the system-wide monotonic clock, the moment
`incentiveledger.cli` is imported and its parser built, then calls
`incentiveledger.cli.main` with the given arguments and writes its exit
code (and, with --trace, the span report) to RESULT.json. With --probe it
stops once the parser is built.

Unless traced, it also samples the speed of the core it runs on: every
REF_PERIOD_S of wall time a SIGALRM handler times one fixed reference
loop, and RESULT.json gets `speed`, the mean over the samples of
REF_SECONDS / loop time. The parent multiplies wall times by it, which
turns them into seconds at the speed where the loop takes REF_SECONDS.
A probe samples during set-up the same way.
"""

import os
import signal
import sys
import time

# The core's speed changes within milliseconds, so the mean speed of a
# run needs many short samples: a 60 us loop every 5 ms costs about 1%
# and halves the spread of the scaled times against one every 50 ms.
REF_PERIOD_S = 0.005
# About the reference loop's time at the faster of the two speeds each
# core of a shared 2-vCPU Xeon VM alternates between (the slower is ~2x).
REF_SECONDS = 0.06e-3
MIN_SAMPLES = 20


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def reference_loop() -> int:
    """Fixed interpreter work of the program's kind: small objects,
    attribute reads, dict updates, int arithmetic and formatting."""
    totals: dict[int, int] = {}
    count = 0
    for i in range(100):
        item = _Item(i & 63, i * 7)
        totals[item.key] = totals.get(item.key, 0) + item.value
        count += len(str(item.value)) + item.value % 5
    return count + len(totals)


class SpeedSampler:
    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self.samples) < MIN_SAMPLES:  # a run too short to sample
            self.sample()

    def speed(self) -> float:
        """Reference-speed seconds per wall second. The samples are evenly
        spaced in wall time, so the mean of the speeds (not of the loop
        times) weights each stretch of the run by its length."""
        return sum(REF_SECONDS / s for s in self.samples) / len(self.samples)


def main() -> int:
    result_path, *rest = sys.argv[1:]
    split = rest.index("--") if "--" in rest else len(rest)
    options, cli_args = rest[:split], rest[split + 1:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    sampler = None if "--trace" in options else SpeedSampler()
    if sampler is not None:
        sampler.start()

    import incentiveledger.cli as cli

    marks = {}
    build_parser = cli.build_parser

    def timed_build_parser():
        parser = build_parser()
        marks.setdefault("setup_end", time.monotonic())
        return parser

    cli.build_parser = timed_build_parser
    result = {}
    if "--probe" in options:
        cli.build_parser()
        code = 0
    else:
        tracer = None
        if "--trace" in options:
            from tracer import install_or_exit

            tracer = install_or_exit()
        if "--seed-offset" in options:
            _offset_seeds(int(options[options.index("--seed-offset") + 1]))
        main_fn = tracer.wrap("cli.main", cli.main) if tracer else cli.main
        try:
            code = main_fn(cli_args)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        if tracer is not None:
            result["trace"] = tracer.report()
    if sampler is not None:
        sampler.stop()
        result["speed"] = sampler.speed()
    result.update(code=code, setup_end=marks.get("setup_end"))

    import json

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


def _offset_seeds(offset: int) -> None:
    """Make `sweep --seeds N` run seeds offset..offset+N-1.

    The sweep always runs seeds 0..N-1 through `with_seed`, so shifting the
    seed there is how the benchmark's --seed reaches the paper grid; the
    parent checks the written run directories to confirm it took effect.
    """
    import incentiveledger.cli as cli
    import incentiveledger.engine as engine

    original = engine.with_seed

    def with_seed(cfg, seed):
        return original(cfg, seed + offset)

    cli.with_seed = with_seed
    engine.with_seed = with_seed


if __name__ == "__main__":
    sys.exit(main())
