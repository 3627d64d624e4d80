"""One-token mutants of the kernels, each run against a fast test subset.

Run from the repository root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py heads      # the mutants whose names contain "heads"

Each mutant replaces one token of one file under `src/` in a temporary copy
of `src/`, `tests/` and `pyproject.toml`, then runs FAST_TESTS there under
`python` and under `python -O`, stopping at the first failure.  A mutant is
killed when the subset fails; the unmutated copy must pass it first.  The
table printed at the end names, per interpreter, the first test that
failed, or "SURVIVED".  A survivor is a finding: either the mutant is
equivalent, or a test is missing.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INTERPRETERS = {"python": [], "python -O": ["-O"]}
FAST_TESTS = (
    "tests/test_basket.py",
    "tests/test_rr_kernels.py",
    "tests/test_search.py",
    "tests/test_universe.py",
    "tests/test_pencil.py",
    "tests/test_recovery.py",
    "tests/test_indexbound.py",
    "tests/test_reports.py",
)

# name -> (file under src/fanobasket, text, its replacement); the text must
# occur exactly once in the file
MUTANTS = {
    "pins kept unsorted": (
        "search.py",
        "dict(sorted((pins or {}).items()))",
        "dict(((pins or {}).items()))",
    ),
    "cost table drops r = 24": (
        "recovery.py",
        "_COSTS = {r: cost(r) for r in range(2, TAIL_R_CAP + 1)}",
        "_COSTS = {r: cost(r) for r in range(2, TAIL_R_CAP)}",
    ),
    "budget walk stops short of the last value": (
        "recovery.py",
        "for r in range(start, hi + 1):",
        "for r in range(start, hi):",
    ),
    "budget walk refuses what spends the budget exactly": (
        "recovery.py",
        "over[r] > left",
        "over[r] >= left",
    ),
    "repeating walk repeats no value": (
        "recovery.py",
        "step(r if repeat else r + 1,",
        "step(r + 1 if repeat else r + 1,",
    ),
    "tail point displaces a (1, 3)": (
        "recovery.py",
        "c - _COSTS[4]",
        "c - _COSTS[3]",
    ),
    "heads count n13 as n12": (
        "recovery.py",
        "map(points.count, (2, 3, 4))",
        "map(points.count, (3, 2, 4))",
    ),
    "840 degrees start at 72": (
        "pencil.py",
        "for m in range(71, L840_HORIZON + 1):",
        "for m in range(72, L840_HORIZON + 1):",
    ),
    "text memo starts filled": (
        "basket.py",
        "self._table = None, None, None, (0, ())",
        'self._table = None, "", None, (0, ())',
    ),
    "residue scale adds the count": (
        "basket.py",
        "map((n * (big_l // r)).__mul__",
        "map((n + (big_l // r)).__mul__",
    ),
    "table growth starts one degree late": (
        "basket.py",
        "range(len(values) + 1, upto + 1)",
        "range(len(values) + 2, upto + 1)",
    ),
    "point table steps start at k = 3": (
        "basket.py",
        "for k in range(2, POINT_HORIZON + 1):",
        "for k in range(3, POINT_HORIZON + 1):",
    ),
    "point-free term loses p1": (
        "basket.py",
        "tuple(p1 + (p1 - 3) *",
        "tuple((p1 - 3) *",
    ),
    "point table integrality raise removed": (
        "basket.py",
        "if rem:  # u == kb (mod r) makes every step an integer",
        "if False:  # u == kb (mod r) makes every step an integer",
    ),
    "writer indents by one space": (
        "reports.py",
        'inner = pad + "  "',
        'inner = pad + " "',
    ),
    "survivor row writer indents by one space": (
        "reports.py",
        'wb, field = self.wb, pad + "  "',
        'wb, field = self.wb, pad + " "',
    ),
    "eliminated row writer indents by one space": (
        "reports.py",
        'field = pad + "  "\n        return',
        'field = pad + " "\n        return',
    ),
    "P_-m of 3 does not settle m1": (
        "search.py",
        "if pm >= 3:",
        "if pm > 3:",
    ),
    "point share scaled by one count less": (
        "basket.py",
        "map(mul, share, repeat(n))",
        "map(mul, share, repeat(n - 1))",
    ),
    "per-r_max index sets read r_max - 1": (
        "indexbound.py",
        "_sets_ending_at(r_max)",
        "_sets_ending_at(r_max - 1)",
    ),
}


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _mutate(tree: Path, mutant: tuple[str, str, str]) -> None:
    name, old, new = mutant
    path = tree / "src" / "fanobasket" / name
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{name}: {old!r} occurs {text.count(old)} times, not once")
    path.write_text(text.replace(old, new))


def _first_failure(tree: Path, flags: list[str]) -> str | None:
    """The first failing test of FAST_TESTS in `tree`, or None if all pass."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, *flags, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
         *FAST_TESTS],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if done.returncode == 0:
        return None
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return found.group(1) if found else f"exit {done.returncode}"


def run(names: list[str]) -> dict[str, dict[str, str | None]]:
    """{mutant: {interpreter: first failing test or None}} for `names`."""
    kills = {}
    with tempfile.TemporaryDirectory(prefix="fanobasket-mutants-") as scratch:
        base = Path(scratch) / "base"
        _copy_tree(base)
        for label, flags in INTERPRETERS.items():
            if (failure := _first_failure(base, flags)) is not None:
                raise SystemExit(f"the unmutated copy fails {failure} under {label}")
        for name in names:
            tree = Path(scratch) / "mutant"
            shutil.copytree(base, tree)
            _mutate(tree, MUTANTS[name])
            kills[name] = {label: _first_failure(tree, flags)
                           for label, flags in INTERPRETERS.items()}
            shutil.rmtree(tree)
            print(f"{name}: {kills[name]}", file=sys.stderr, flush=True)
    return kills


def main(argv: list[str]) -> int:
    names = [name for name in MUTANTS if not argv or any(word in name for word in argv)]
    if not names:
        raise SystemExit(f"no mutant matches {argv}; the mutants are {list(MUTANTS)}")
    kills = run(names)
    print("| mutant | file | " + " | ".join(INTERPRETERS) + " |")
    print("|---|---|" + "---|" * len(INTERPRETERS))
    for name, by_flags in kills.items():
        cells = [failure or "SURVIVED" for failure in by_flags.values()]
        print(f"| {name} | {MUTANTS[name][0]} | " + " | ".join(cells) + " |")
    return 1 if any(None in by_flags.values() for by_flags in kills.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
