"""Self-test of the benchmark's tracer.

    python3 perfbench/selftest.py

Checks that the tracer wraps every binding of every entry point (the
aliases other modules import included), that a traced replays pass and a
traced X66 fit make exactly the calls counted at the seed commit, that
traced outputs equal untraced outputs, and that uninstalling leaves no
wrapper behind.  Prints each mismatch and exits 1 if there is one.  The
counts pin the program's work: a change that makes the program do less
work moves them on purpose, and then this file's expectations are updated
in a benchmark change of their own.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import fanobasket  # noqa: E402,F401
import fanobasket.cli  # noqa: E402,F401
import passes  # noqa: E402
from tracer import Tracer, package_modules  # noqa: E402

# names the other modules import, which must be traced where they are bound
ALIASES = {
    "dominated_baskets": ("canonical", "search", "wci"),
    "recover": ("recovery", "wci"),
    "feasible_tails": ("recovery", "wci"),
    "enumerate_geometric_full": ("search", "birational"),
    "is_geometric_candidate": ("search", "birational"),
    "replay_delta1": ("search", "birational"),
    "thm2_check_840": ("pencil", "birational"),
    "k1_all_points": ("pencil", "search"),
    "k2_thresholds": ("pencil", "search"),
}
METHODS = (("basket", "Basket", "__init__"), ("basket", "Basket", "delta"),
           ("basket", "WeightedBasket", "plurigenera"), ("reports", "ReplayReport", "json_text"))

# one replays pass at the seed commit: the seven replays after `replay list`,
# and `replay list` itself
REPLAYS_COUNTS = {
    "search.enumerate.calls": 21,
    "search.candidates": 2541,
    "basket.plurigenera.calls": 4010,
    "basket.delta.calls": 91389,
    "basket.l_neg.calls": 18880,
    "pencil.thm2_check_840.calls": 236,
    "canonical.dominated_baskets.calls": 404,
    "canonical.unpack.calls": 536,
    "basket.construct.calls": 11741,
}
LIST_COUNTS = {
    "search.enumerate.calls": 1,
    "search.candidates": 52,
    "basket.plurigenera.calls": 75,
    "basket.delta.calls": 733,
    "basket.l_neg.calls": 0,
    "pencil.thm2_check_840.calls": 0,
    "canonical.dominated_baskets.calls": 6,
    "canonical.unpack.calls": 0,
    "basket.construct.calls": 667,
}
X66_RECOVER_CALLS = 230_231
X66_FEASIBLE = 2

failures: list[str] = []


def expect(what: str, got, want) -> None:
    if got != want:
        failures.append(f"{what}: got {got}, expected {want}")


def traced(fn):
    """(result of fn, tracer) with the tracer installed around fn only."""
    tracer = Tracer()
    tracer.install()
    try:
        return fn(), tracer
    finally:
        tracer.uninstall()


def check_aliases() -> None:
    tracer = Tracer()
    tracer.install()
    try:
        expect("bindings left unwrapped", tracer.unwrapped_bindings(), [])
        for name, homes in ALIASES.items():
            for home in homes:
                fn = getattr(sys.modules[f"fanobasket.{home}"], name)
                expect(f"fanobasket.{home}.{name} traced", hasattr(fn, "trace_key"), True)
        for home, cls, meth in METHODS:
            fn = vars(getattr(sys.modules[f"fanobasket.{home}"], cls))[meth]
            expect(f"{cls}.{meth} traced", hasattr(fn, "trace_key"), True)
    finally:
        tracer.uninstall()
    left = [f"{m.__name__}.{attr}" for m in package_modules() for attr, v in vars(m).items()
            if hasattr(v, "trace_key")]
    left += [f"{m.__name__}.{attr}.{meth}" for m in package_modules()
             for attr, v in vars(m).items() if isinstance(v, type)
             for meth, fn in vars(v).items() if hasattr(fn, "trace_key")]
    expect("wrappers left after uninstall", left, [])


def check_replays() -> None:
    steps = passes.replay_steps()
    _, list_tracer = traced(lambda: passes.run_replays(None, steps[:1]))
    _, rest_tracer = traced(lambda: passes.run_replays(None, steps[1:]))
    for label, tracer, want in (("replay list", list_tracer, LIST_COUNTS),
                                ("replays after list", rest_tracer, REPLAYS_COUNTS)):
        got = tracer.layer_metrics()
        for key, value in want.items():
            expect(f"{label} {key}", got[key], value)

    _, plain = passes.run_replays(None)
    (_, outputs), _ = traced(lambda: passes.run_replays(None))
    plain_check, traced_check = passes.check_replays(None, plain), passes.check_replays(None, outputs)
    expect("replays failures untraced", plain_check[3], [])
    expect("replays digest traced vs untraced", traced_check[2], plain_check[2])


def check_oracle_fit() -> None:
    family = passes.wci_families()[0]
    expect("first family", family[0], "X66")
    _, plain = passes.run_oracle_fit(family)
    (_, out), tracer = traced(lambda: passes.run_oracle_fit(family))
    expect("X66 recover calls", tracer.calls["recovery.recover"], X66_RECOVER_CALLS)
    expect("X66 feasible recoveries", tracer.outcomes["recovery.feasible"], X66_FEASIBLE)
    plain_check, traced_check = passes.check_oracle_fit(family, plain), passes.check_oracle_fit(family, out)
    expect("X66 failures untraced", plain_check[3], [])
    expect("X66 digest traced vs untraced", traced_check[2], plain_check[2])


def check_rr_kernels() -> None:
    baskets = passes.rr_baskets(0, 0, n=20)
    _, plain = passes.run_rr_kernels(baskets)
    (_, outputs), _ = traced(lambda: passes.run_rr_kernels(baskets))
    plain_check, traced_check = (passes.check_rr_kernels(baskets, plain),
                                 passes.check_rr_kernels(baskets, outputs))
    expect("rr_kernels failures untraced", plain_check[3], [])
    expect("rr_kernels digest traced vs untraced", traced_check[2], plain_check[2])


def main() -> int:
    for check in (check_aliases, check_replays, check_oracle_fit, check_rr_kernels):
        before = len(failures)
        check()
        print(f"{check.__name__}: {'ok' if len(failures) == before else 'FAILED'}", flush=True)
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
