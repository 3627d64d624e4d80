"""One benchmark pass of one workload, in a fresh interpreter.

    python3 perfbench/passes.py --workload rr_kernels --seed 3 --pass 0 --trace 0

prints one JSON object: the set-up time (import plus input generation), the
pass time and the time of each operation, all in reference seconds (see
Speedometer), the raw set-up and pass times, peak RSS, an output digest, the
failures found by the output checks, and with --trace 1 the per-layer
metrics.  A failing operation or check is recorded and the pass goes on.
--setup-only stops after set-up.  The checkout's `src` is put on the path,
so the package need not be installed.  --write-reference regenerates
reference/replays.json from the current code (it was made at the commit
that added the benchmark).
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

# set-up is timed from here: the package import plus input generation
T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_LIST = ROOT / "tests" / "golden" / "p1_p2_zero_table.txt"
REFERENCE = HERE / "reference" / "replays.json"

WORKLOADS = ("replays", "oracle_fit", "rr_kernels")
DELTA1_FAMILIES = ("P1_ge_3", "P1_eq_2", "P1_eq_1", "P1_eq_0")
BIRATIONALITY_TARGETS = ("QFano39", "Weak97")
INDEX_WITNESSES = [[2, 3, 5, 7, 8], [3, 5, 7, 8]]

FIT_UPTO = 40
RR_BASKETS_PER_PASS = 150
RR_HORIZON = 200
RR_CHECKPOINTS = (1, 2, 3, 5, 8, 13, 24, 40, 61, 100, 150, 200)
RR_K1_DEGREES = range(1, 9)
RR_PENCIL_HORIZON = 61

# the speed calibration (see Speedometer)
CAL_REF_S = 0.0035
CAL_INTERVAL_S = 0.1
CAL_WINDOW_S = 0.15
CAL_SETUP_SAMPLES = 5


# --- speed calibration ----------------------------------------------------------


def _calibration_work():
    """A fixed slice of pure-Python work like the program's own: Fraction
    arithmetic, tuple keys and dict updates."""
    from fractions import Fraction  # imported here so that set-up still times it

    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(i % 7 + 1, i + 1)
    counts = {}
    for i in range(7500):
        key = (i % 61, i % 7)
        counts[key] = counts.get(key, 0) + i
    return total, counts


class Speedometer:
    """Samples the processor's speed during a pass.

    A shared host's processor runs faster or slower for stretches of a few
    seconds, by up to 2x, and that moves every time the pass measures.  So
    the pass runs a fixed slice of work at the start, at the end and every
    CAL_INTERVAL_S in between (from a SIGALRM handler, so that the long
    replay steps are sampled too).  A time is reported in reference
    seconds: its raw time, less the slices run inside it, times CAL_REF_S
    over the median slice time within CAL_WINDOW_S of it.  A reference
    second is a second of a processor on which a slice takes CAL_REF_S.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, slice time)
        self.spent = 0.0  # seconds spent in slices so far

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _calibration_work()
        end = time.perf_counter()
        self.samples.append(((start + end) / 2, end - start))
        self.spent += end - start

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """CAL_REF_S over the median slice time around [start, end]."""
        near = [s for mid, s in self.samples if start - CAL_WINDOW_S <= mid <= end + CAL_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda m: abs(m[0] - (start + end) / 2))[1]]
        return CAL_REF_S / statistics.median(near)

    def reference_s(self, interval: tuple[float, float, float]) -> float:
        start, end, raw = interval
        return raw * self.scale(start, end)


SPEED = Speedometer()


# --- inputs -------------------------------------------------------------------


def wci_families():
    """The 16 named WCI fixtures as (name, WeightedCI), in a fixed order."""
    from fanobasket import wci

    fams = [("X66", wci.X66), ("X42", wci.X42), ("X24_30", wci.X24_30), ("X19", wci.X19)]
    fams += [(f"X6d({a},{b})", wci.x6d_member(a, b)) for a, b in wci.X6D_PAIRS]
    return fams


def oracle_order(seed: int) -> list[int]:
    """The seed's order of the 16 families; pass i fits order[i % 16]."""
    order = list(range(16))
    random.Random(f"oracle_fit:{seed}").shuffle(order)
    return order


def rr_baskets(seed: int, pass_index: int, n: int = RR_BASKETS_PER_PASS):
    """n random weighted baskets: 1-8 distinct canonical points with r <= 24,
    each repeated 1-12 times, and p1 in 0..10; no budget filter."""
    from fanobasket.basket import Basket, WeightedBasket

    rng = random.Random(f"rr_kernels:{seed}:{pass_index}")
    out = []
    for _ in range(n):
        points: set[tuple[int, int]] = set()
        size = rng.randint(1, 8)
        while len(points) < size:
            r = rng.randint(2, 24)
            b = rng.randint(1, r // 2)
            if math.gcd(b, r) == 1:
                points.add((b, r))
        pairs = []
        for point in sorted(points):
            pairs += [point] * rng.randint(1, 12)
        out.append(WeightedBasket(Basket(pairs), rng.randint(0, 10)))
    return out


def make_inputs(workload: str, seed: int, pass_index: int):
    if workload == "replays":
        return None  # the replays take no input
    if workload == "oracle_fit":
        return wci_families()[oracle_order(seed)[pass_index % 16]]
    return rr_baskets(seed, pass_index)


# --- passes: each returns (op intervals, outputs); outputs are checked later --


def _timed(fn):
    """((start, end, raw seconds), result), where the raw seconds leave out
    the calibration slices run inside; an exception raised by the program is
    the result."""
    spent = SPEED.spent
    start = time.perf_counter()
    try:
        value = fn()
    except Exception as exc:  # a failing operation is recorded, not fatal
        value = exc
    end = time.perf_counter()
    return (start, end, end - start - (SPEED.spent - spent)), value


def replay_steps():
    """The replays pass as (name, call) steps, in order."""
    import fanobasket.birational as birational
    import fanobasket.cli as cli
    import fanobasket.indexbound as indexbound
    import fanobasket.search as search

    def replay_list():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["replay", "list"])
        return code, buf.getvalue()

    steps = [("list", replay_list)]
    steps += [(fam, lambda f=fam: search.replay_delta1(f).json_text()) for fam in DELTA1_FAMILIES]
    steps += [(t, lambda t=t: birational.replay_birationality(t).json_text())
              for t in BIRATIONALITY_TARGETS]
    steps.append(("index", lambda: indexbound.max_index_report().to_json()))
    return steps


def run_replays(_inputs, steps=None):
    """One interval per step; the operation is the whole pass."""
    intervals, outputs = [], {}
    for name, fn in steps or replay_steps():
        interval, outputs[name] = _timed(fn)
        intervals.append(interval)
    return intervals, outputs


def run_oracle_fit(family):
    import fanobasket.wci as wci

    _, ci = family

    def fit():
        p = wci.anti_plurigenera_from_hilbert(ci, FIT_UPTO)
        return p, wci.fit_basket(p)

    interval, out = _timed(fit)
    return [interval], out


def run_rr_kernels(baskets):
    import fanobasket.canonical as canonical
    import fanobasket.pencil as pencil

    def kernels(wb):
        seq = wb.plurigenera(RR_HORIZON)
        closed = [wb.anti_plurigenus(m) for m in RR_CHECKPOINTS]
        chain = canonical.canonical_chain(wb.basket)
        k1 = [pencil.k1_all_points(wb.basket, m) for m in RR_K1_DEGREES]
        scan = (pencil.non_pencil_threshold(wb, RR_PENCIL_HORIZON)
                if wb.volume() > 0 else None)
        return seq, closed, chain, k1, scan

    intervals, outputs = [], []
    for wb in baskets:
        interval, out = _timed(lambda: kernels(wb))
        intervals.append(interval)
        outputs.append(out)
    return intervals, outputs


RUNNERS = {"replays": run_replays, "oracle_fit": run_oracle_fit, "rr_kernels": run_rr_kernels}


# --- checks: each returns (ops, failed ops, digest, failure texts) ------------


def _digest(parts) -> str:
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()[:16]


def replay_projection(report_json: dict) -> dict:
    """The parts of a replay report the benchmark compares; keys added to
    the report later are ignored."""
    return {
        "conclusion": report_json["conclusion"],
        "leaves": [[leaf["name"], leaf["threshold"]] for leaf in report_json.get("leaves", [])],
        "survivors": [s["basket"] for s in report_json["survivors"]],
        "eliminated": [[e.get("branch", ""), e["basket"], e["certificate"]]
                       for e in report_json["eliminated"]],
    }


def check_replays(_inputs, outputs):
    failures = []
    reference = json.loads(REFERENCE.read_text())
    parts = {}
    for name, out in outputs.items():
        if isinstance(out, Exception):
            failures.append(f"{name}: raised {type(out).__name__}: {out}")
            parts[name] = repr(out)
            continue
        parts[name] = out
        if name == "list":
            code, text = out
            if code != 0 or text != GOLDEN_LIST.read_text():
                failures.append("list: output differs from tests/golden/p1_p2_zero_table.txt")
        elif name == "index":
            if out["max"] != 840 or out["witnesses"] != INDEX_WITNESSES:
                failures.append(f"index: got {out['max']} with {out['witnesses']}")
        elif replay_projection(json.loads(out)) != reference[name]:
            failures.append(f"{name}: report differs from perfbench/reference/replays.json")
    return 1, int(bool(failures)), _digest(parts), failures


def check_oracle_fit(family, out):
    name, ci = family
    # the failure text names the command that replays this family by hand
    label = (f"{name} (fanobasket wci --weights {','.join(map(str, ci.weights))}"
            f" --degrees {','.join(map(str, ci.degrees))} --upto {FIT_UPTO} --fit)")
    if isinstance(out, Exception):
        return 1, 1, _digest([name, repr(out)]), [f"{label}: raised {type(out).__name__}: {out}"]
    p, fits = out
    failures = []
    if len(fits) != 1:
        failures.append(f"{label}: {len(fits)} fits, expected exactly one")
    for wb in fits:
        closed = [wb.anti_plurigenus(m) for m in range(1, FIT_UPTO + 1)]
        if closed != list(p.values):
            failures.append(f"{label}: fit {wb.text()} does not reproduce the coefficients")
        if wb.volume() != ci.hypersurface_volume():
            failures.append(f"{label}: fit volume {wb.volume()} != {ci.hypersurface_volume()}")
    digest = _digest([name, list(p.values), [wb.text() for wb in fits]])
    return 1, int(bool(failures)), digest, failures


def check_rr_kernels(baskets, outputs):
    failures, parts, failed = [], [], 0
    for wb, out in zip(baskets, outputs):
        if isinstance(out, Exception):
            failed += 1
            failures.append(f"{wb.text()}: raised {type(out).__name__}: {out}")
            parts.append([wb.text(), repr(out)])
            continue
        seq, closed, chain, k1, scan = out
        recursive = [seq[m] for m in RR_CHECKPOINTS]
        eps = [stage.epsilon for stage in chain.stages]
        bad = []
        if recursive != closed:
            bad.append("closed and recursive Riemann-Roch disagree")
        if chain.stages[-1].basket != wb.basket:
            bad.append("last chain stage is not the basket")
        if min(eps) < 0:
            bad.append(f"negative epsilon in {eps}")
        failed += bool(bad)
        failures += [f"{wb.text()}: {why}" for why in bad]
        parts.append([wb.text(), list(seq.values), closed,
                      [[s.level, s.basket.text(), s.epsilon] for s in chain.stages],
                      k1, None if scan is None else scan.first_not_pencil])
    return len(baskets), failed, _digest(parts), failures


CHECKS = {"replays": check_replays, "oracle_fit": check_oracle_fit, "rr_kernels": check_rr_kernels}


def write_reference() -> None:
    """Regenerate reference/replays.json from the current code."""
    import fanobasket.birational as birational
    import fanobasket.search as search

    ref = {fam: replay_projection(search.replay_delta1(fam).to_json()) for fam in DELTA1_FAMILIES}
    for target in BIRATIONALITY_TARGETS:
        ref[target] = replay_projection(birational.replay_birationality(target).to_json())
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass", dest="pass_index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import fanobasket  # part of the measured set-up
    import fanobasket.cli  # noqa: F401  (not imported by the package itself)

    if Path(fanobasket.__file__).resolve().parent != ROOT / "src" / "fanobasket":
        sys.exit(f"fanobasket was imported from {fanobasket.__file__}, not from the checkout")

    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    inputs = make_inputs(args.workload, args.seed, args.pass_index)
    setup_raw_s = time.perf_counter() - T_START
    for _ in range(CAL_SETUP_SAMPLES):
        SPEED.sample()
    setup_scale = CAL_REF_S / statistics.median(s for _, s in SPEED.samples)
    result = {"setup_s": setup_raw_s * setup_scale, "setup_raw_s": setup_raw_s}
    if not args.setup_only:
        tracer = None
        if args.trace:
            sys.path.insert(0, str(HERE))
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        SPEED.start()
        intervals, outputs = RUNNERS[args.workload](inputs)
        SPEED.stop()
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
        times = [SPEED.reference_s(i) for i in intervals]
        op_times = [sum(times)] if args.workload == "replays" else times
        ops, failed, digest, failures = CHECKS[args.workload](inputs, outputs)
        result.update(wall_s=sum(times), wall_raw_s=sum(i[2] for i in intervals),
                      slice_ms=1000 * statistics.median(s for _, s in SPEED.samples),
                      op_times=op_times, peak_rss_kib=peak_rss_kib,
                      ops=ops, failed=failed, failures=failures, digest=digest)
        if args.workload == "oracle_fit":
            result["family"] = inputs[0]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
