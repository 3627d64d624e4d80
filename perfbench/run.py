"""fanobasket benchmark: three workloads, each pass in a fresh interpreter.

    python3 perfbench/run.py --workload replays --seed 1 --seconds 36 --trace 0

Passes run one at a time (closed loop, one caller), in rounds: a round is
one pass (oracle_fit: one pass per WCI fixture), and another round starts
only if a round as long as the last would end within --seconds.  Each pass
is its own `python3 perfbench/passes.py` process, so every pass pays for
the import and for any cache it builds, and times itself in reference
seconds, scaled by the processor speed it samples.  With --trace 0 the
last line of standard output is a JSON object with the end-to-end metrics;
with --trace 1 a round is an untraced and a traced pass over the same inputs
(pass 0 of the seed), and the per-layer metrics are reported instead.  A run record
with every pass goes to perfbench/runs/.  --workload all runs each workload
in turn and prints every workload's metrics and check status.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASSES = HERE / "passes.py"
RUNS = HERE / "runs"
WORKLOADS = ("replays", "oracle_fit", "rr_kernels")
CHILD_TIMEOUT_S = 170
MACHINE_NOTE = "shared 2-vCPU, no pinning or frequency control"
# oracle_fit measures whole rounds of the 16 WCI fixtures, so every run fits
# the same families and the seed only changes their order
ROUND_PASSES = {"oracle_fit": 16}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run: no result may be printed."""


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": MACHINE_NOTE,
    }


def run_pass(workload: str, seed: int, pass_index: int, trace: int,
             setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(PASSES), "--workload", workload, "--seed", str(seed),
           "--pass", str(pass_index), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    # a fixed string-hash seed keeps set and dict order the same in every pass
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"pass {pass_index} of {workload} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"pass {pass_index} of {workload} exited {proc.returncode}:\n"
                           + proc.stderr.strip()[-3000:])
    result = json.loads(proc.stdout.splitlines()[-1])
    result["pass"] = pass_index
    return result


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 10..90 by tens), inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def end_to_end(passes: list[dict]) -> dict[str, float]:
    op_times = [t for p in passes for t in p["op_times"]]
    busy_s = sum(p["wall_s"] for p in passes)
    verified = sum(p["ops"] - p["failed"] for p in passes)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "ops_per_s": verified / busy_s,
        "op_p50_ms": 1000 * quantile(op_times, 50),
        "op_p90_ms": 1000 * quantile(op_times, 90),
        "peak_rss_mib": statistics.mean(p["peak_rss_kib"] for p in passes) / 1024,
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    # every traced pass runs the same inputs; median_low keeps counts whole
    out = {k: statistics.median_low(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
    out["trace.overhead_ratio"] = (statistics.median(p["wall_s"] for p in traced)
                                   / statistics.median(p["wall_s"] for p in untraced))
    return out


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    run_pass(workload, seed, 0, 0, setup_only=True)  # writes bytecode; not measured
    deadline = time.monotonic() + seconds
    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        round_start = time.monotonic()
        if trace:
            untraced.append(run_pass(workload, seed, 0, 0))
            traced.append(run_pass(workload, seed, 0, 1))
            if traced[-1]["digest"] != untraced[-1]["digest"]:
                traced[-1]["failed"] = traced[-1]["ops"]
                traced[-1]["failures"].append("traced outputs differ from untraced outputs")
        else:
            for _ in range(ROUND_PASSES.get(workload, 1)):
                untraced.append(run_pass(workload, seed, len(untraced), 0))
        # start another round only if one as long as the last ends in time
        now = time.monotonic()
        if now + (now - round_start) > deadline:
            break
    passes = untraced + traced
    if trace:
        values = per_layer(untraced, traced)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    else:
        values = end_to_end(untraced)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "families": [p["family"] for p in passes if "family" in p],
        "passes": [{k: v for k, v in p.items() if k not in ("op_times", "layers")}
                   for p in passes],
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    RUNS.mkdir(exist_ok=True)
    record_path = RUNS / f"{workload}-seed{seed}-trace{trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for p in passes:
        kind = " traced" if "layers" in p else ""
        print(f"{workload} seed={seed} pass {p['pass']}{kind}: {p['wall_s']:.3f} s"
              f" ({p['wall_raw_s']:.3f} s raw, slice {p['slice_ms']:.2f} ms),"
              f" setup {p['setup_s']:.3f} s ({p['setup_raw_s']:.3f} s raw),"
              f" {p['ops']} ops, {p['failed']} failed,"
              f" digest {p['digest']}" + (f", family {p['family']}" if "family" in p else ""))
        for failure in p["failures"]:
            print(f"  FAILED {failure}")
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"check {workload}: attempted {attempted}, failed {failed},"
          f" {'ok' if failed == 0 else 'FAILED'} (record {record_path.relative_to(ROOT)})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="fanobasket benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fanobasket" / "__init__.py").is_file():
        print(f"no fanobasket sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    print(f"fanobasket benchmark: python {env['python']}, nproc {env['nproc']},"
          f" git {env['git_sha'] or 'unknown'}, {env['machine']}")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in workloads}
    except HarnessError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (result,) = results.values()
    else:
        for w, r in results.items():
            print(json.dumps({"workload": w, **r}))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
