"""Replay and index-bound proof steps are checked by `reports.require`, so a
command does the same work, prints the same bytes and returns the same exit
code with and without `python -O`."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import pytest

import fanobasket

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fanobasket"
GOLDEN_DIR = Path(__file__).parent / "golden"
INTERPRETERS = {"plain": [], "optimized": ["-O"]}
PENCIL_630 = ["pencil", "--basket", "2x(1,2),(2,5),(3,7),(4,9)", "--p1", "0", "--horizon", "61"]

# name -> (patch run before the CLI, CLI arguments, stderr prefix, stderr suffix)
FAULTS = {
    "840 growth check": (
        "import fanobasket.birational as birational\n"
        "birational.thm2_check_840 = lambda basket: None\n",
        ("replay", "birat2"),
        "contradiction: Weak97 840 sweep, ",
        ": growth regime fails on 71..150\n",
    ),
    # a least passing weight above v, the least volume-positive weight, would
    # leave the weights v..10 of every basket unproved
    "840 least weight above v": (
        "import fanobasket.birational as birational\n"
        "birational.thm2_check_840 = lambda basket: 11\n",
        ("replay", "birat2"),
        "contradiction: Weak97 840 sweep, (1,3),(1,5),(1,7),(1,8) with p1 = 2",
        ": growth regime fails on 71..150\n",
    ),
    "growth threshold": (
        "import fanobasket.birational as birational\n"
        "threshold = birational.thm1_threshold_from_bounds\n"
        "birational.thm1_threshold_from_bounds = lambda *bounds: threshold(*bounds) + 1\n",
        ("replay", "birat2"),
        "contradiction: Weak97 leaf I: P2=0: growth threshold 39 != 38",
        "\n",
    ),
    # an index above 660 other than 840 would leave the rX <= 660 leaf uncapped
    "Weak97 index cap 660": (
        "import fanobasket.birational as birational\n"
        "indices = birational.attainable_indices\n"
        "birational.attainable_indices = lambda r, **k: (\n"
        "    (*indices(r, **k), 700) if r <= 12 else indices(r, **k))\n",
        ("replay", "birat2"),
        "contradiction: Weak97 III: rmax<=12, rX<=660: rX is at most 660 or one of [840],"
        " not [700]",
        "; largest 840, expected 840\n",
    ),
    # every volume-positive basket of the 24-budget has -K^3 >= 1/330 at its
    # least such weight, so the sweep is handed an index-840 basket outside it
    "840 sweep volume floor": (
        "import fanobasket.birational as birational\n"
        "from fanobasket.basket import Basket\n"
        "baskets = birational._residue_baskets\n"
        "birational._residue_baskets = lambda sets: [\n"
        "    Basket.parse('(1,4),(1,6),(1,8),(4,35)'), *baskets(sets)]\n",
        ("replay", "birat2"),
        "contradiction: Weak97 840 sweep, (1,4),(1,6),(1,8),(4,35) with p1 = 0:",
        " -K^3 = 1/840 < 1/330\n",
    ),
    # QFano39's worst leaf sits exactly at 39, so one more passes the target
    "leaf threshold above the target": (
        "import fanobasket.birational as birational\n"
        "threshold = birational.thm_main_threshold\n"
        "birational.thm_main_threshold = lambda inp, variant: threshold(inp, variant) + 1\n",
        ("replay", "birat1"),
        "contradiction: QFano39 leaf P1=1, n0=6, escape at 7: threshold 40 > 39",
        "\n",
    ),
    # with every leaf one lower the tree proves more than its target claims
    "worst leaf below the target": (
        "import fanobasket.birational as birational\n"
        "threshold = birational.thm_main_threshold\n"
        "birational.thm_main_threshold = lambda inp, variant: threshold(inp, variant) - 1\n",
        ("replay", "birat1"),
        "contradiction: QFano39: worst leaf 38 != target 39",
        "\n",
    ),
    # the same cap rule at a leaf with no isolated index
    "Weak97 index cap 210": (
        "import fanobasket.birational as birational\n"
        "indices = birational.attainable_indices\n"
        "birational.attainable_indices = lambda r, **k: (\n"
        "    (*indices(r, **k), 300) if r == 10 else indices(r, **k))\n",
        ("replay", "birat2"),
        "contradiction: Weak97 IV: rmax=10: rX is at most 210 or one of [], not [300]",
        "; largest 300, expected 210\n",
    ),
    # an index a capped leaf excuses must be settled by a step of its own case:
    # skipping the dead 660 leaves it open, and case III's 840 leaf does not
    # settle case IV's dead 840
    "Weak97 dead 660 skipped": (
        "import fanobasket.birational as birational\n"
        "dead = birational._dead_index\n"
        "birational._dead_index = lambda report, index, *rest: (\n"
        "    None if index == 660 else dead(report, index, *rest))\n",
        ("replay", "birat2"),
        "contradiction: Weak97 IV: leaf IV: rmax=11, rX<=330 excuses rX = 660,"
        " which no step settles; ",
        "the steps settle [462, 546, 630, 840]\n",
    ),
    "Weak97 IV dead 840 skipped": (
        "import fanobasket.birational as birational\n"
        "dead = birational._dead_index\n"
        "birational._dead_index = lambda report, index, *rest: (\n"
        "    None if index == 840 else dead(report, index, *rest))\n",
        ("replay", "birat2"),
        "contradiction: Weak97 IV: leaf IV: rmax<=8, rX<=420 excuses rX = 840,"
        " which no step settles; ",
        "the steps settle [462, 546, 630, 660]\n",
    ),
    # case I reads its bounds off the weak P_-1 = P_-2 = 0 family, which must
    # be the table's rows
    "Weak97 I weak family": (
        "import fanobasket.birational as birational\n"
        "birational.P1_P2_ZERO_TABLE = birational.P1_P2_ZERO_TABLE[:-1]\n",
        ("replay", "birat2"),
        "contradiction: Weak97 I: the weak P_-1 = P_-2 = 0 family is the table's 22 rows,",
        " not 23 baskets; they differ on ['2x(1,2),6x(1,3),(2,5)']\n",
    ),
    # Weak97 reads its explicit baskets off the shared weak P_-1 = 0 family
    "Weak97 IV family without the 630 basket": (
        "import fanobasket.birational as birational\n"
        "family = birational.p1_zero_family\n"
        "birational.p1_zero_family = lambda: tuple(\n"
        "    row for row in family() if row.wb.basket.text() != '2x(1,2),(2,5),(3,7),(4,9)')\n",
        ("replay", "birat2"),
        "contradiction: Weak97 IV: 2x(1,2),(2,5),(3,7),(4,9) is the only index-630 basket",
        "\n",
    ),
    "index-840 sets": (
        "import fanobasket.birational as birational\n"
        "birational.INDEX_840_SETS = birational.INDEX_840_SETS[:1]\n",
        ("replay", "birat2"),
        "contradiction: Weak97 III: index-840 sets [(2, 3, 5, 7, 8), (3, 5, 7, 8)], ",
        "not [(3, 5, 7, 8)] with rmax 8\n",
    ),
    "row No.7 m1": (
        "import fanobasket.search as search\n"
        "search.P1_P2_ZERO_TABLE = tuple(\n"
        "    row._replace(m1=99) if row.no == 7 else row\n"
        "    for row in search.P1_P2_ZERO_TABLE\n"
        ")\n",
        ("replay", "p0"),
        "contradiction: P1_eq_0 No.7: m1 = 6, the table says 99",
        "\n",
    ),
    # `replay list` prints the rows the P_-1 = 0 replay checked
    "row No.7 m1 through replay list": (
        "import fanobasket.search as search\n"
        "search.P1_P2_ZERO_TABLE = tuple(\n"
        "    row._replace(m1=99) if row.no == 7 else row\n"
        "    for row in search.P1_P2_ZERO_TABLE\n"
        ")\n",
        ("replay", "list"),
        "contradiction: P1_eq_0 No.7: m1 = 6, the table says 99",
        "\n",
    ),
    # the first call that reaches the P_-1 = 0 replay is QFano39's
    "row No.7 m1 through QFano39": (
        "import fanobasket.search as search\n"
        "search.P1_P2_ZERO_TABLE = tuple(\n"
        "    row._replace(m1=99) if row.no == 7 else row\n"
        "    for row in search.P1_P2_ZERO_TABLE\n"
        ")\n",
        ("replay", "birat1"),
        "contradiction: P1_eq_0 No.7: m1 = 6, the table says 99",
        "\n",
    ),
    "row No.7 volume": (
        "from fractions import Fraction\n"
        "import fanobasket.search as search\n"
        "search.P1_P2_ZERO_TABLE = tuple(\n"
        "    row._replace(volume=Fraction(1, 31)) if row.no == 7 else row\n"
        "    for row in search.P1_P2_ZERO_TABLE\n"
        ")\n",
        ("replay", "p0"),
        "contradiction: P1_eq_0 No.7: -K^3 = 1/30, P_-3..P_-8 = (1, 1, 1, 3, 3, 4),",
        " the table says 1/31, (1, 1, 1, 3, 3, 4)\n",
    ),
    # a group picked by m1 would absorb No.5 into the m1 > 8 rows and pass
    "QFano39 row": (
        "import fanobasket.birational as birational\n"
        "birational.P1_P2_ZERO_TABLE = tuple(\n"
        "    row._replace(m1=9) if row.no == 5 else row\n"
        "    for row in birational.P1_P2_ZERO_TABLE\n"
        ")\n",
        ("replay", "birat1"),
        "contradiction: QFano39 No.5: P_-7 >= 2 and m1 = 8",
        "\n",
    ),
    # the P1_eq_1 replay still contradicts n0 = 5 up to 8, so the leaf's
    # m1 = 7 is no longer the horizon it ran
    "QFano39 n0<=5 horizon": (
        "import fanobasket.birational as birational\n"
        "import fanobasket.search as search\n"
        "horizons = ((2, 6), (3, 6), (4, 6), (5, 8), (6, 8))\n"
        "search.P1_EQ_1_HORIZONS = birational.P1_EQ_1_HORIZONS = horizons\n",
        ("replay", "birat1"),
        "contradiction: QFano39 P1=1, n0<=5: m1 = 7, not the longest n0 <= 5 horizon 8",
        "\n",
    ),
    # the P1_eq_1 replay still contradicts n0 = 6 up to 9, so the leaves that
    # escape at 7 and 8 no longer cover the horizon it ran
    "QFano39 n0=6 horizon": (
        "import fanobasket.birational as birational\n"
        "import fanobasket.search as search\n"
        "horizons = ((2, 6), (3, 6), (4, 6), (5, 7), (6, 9))\n"
        "search.P1_EQ_1_HORIZONS = birational.P1_EQ_1_HORIZONS = horizons\n",
        ("replay", "birat1"),
        "contradiction: QFano39 P1=1, n0=6: escapes at (7, 8), not at 7..9, the n0 = 6 horizon",
        "\n",
    ),
    # QFano39's P_-1 = 0 < P_-2 leaves read the P1_eq_0 replay's survivors
    "QFano39 P1=0<P2 without No.D": (
        "import copy\n"
        "import fanobasket.birational as birational\n"
        "delta1 = birational.replay_delta1\n"
        "def replay(family):\n"
        "    report = copy.copy(delta1(family))\n"
        "    if family == 'P1_eq_0':\n"
        "        report.survivors = [s for s in report.survivors if s.notes.get('type') != 'No.D']\n"
        "    return report\n"
        "birational.replay_delta1 = replay\n",
        ("replay", "birat1"),
        "contradiction: QFano39 P1=0<P2: No.D survives and rmax <= 11 where m1 is 7 or 8",
        "\n",
    ),
    "QFano39 P1=0<P2 survivor with m1 = 9": (
        "import copy\n"
        "import fanobasket.birational as birational\n"
        "delta1 = birational.replay_delta1\n"
        "def replay(family):\n"
        "    report = copy.copy(delta1(family))\n"
        "    if family == 'P1_eq_0':\n"
        "        rows = report.survivors = list(report.survivors)\n"
        "        i = next(i for i, s in enumerate(rows)\n"
        "                 if s.notes['branch'] == 'P2>0' and 'type' not in s.notes)\n"
        "        rows[i] = rows[i]._replace(notes={**rows[i].notes, 'm1': 9})\n"
        "    return report\n"
        "birational.replay_delta1 = replay\n",
        ("replay", "birat1"),
        "contradiction: QFano39 P1=0<P2: unassigned survivor 13x(1,2)",
        "\n",
    ),
    "exceptional-type upgrade pin": (
        "import fanobasket.search as search\n"
        "search.UPGRADES[1][3][8] = 4  # No.A-No.D: P_-8 = 3\n",
        ("replay", "p0"),
        "contradiction: P1_eq_0 No.A: upgrade needs P_-2 = 1, P_-4 = 1, P_-6 = 2, P_-8 = 4",
        "\n",
    ),
    "Weak97 basket value": (
        "import fanobasket.birational as birational\n"
        "birational.EXPLICIT_BASKETS[546][2][10] = 20  # P_-10 = 21\n",
        ("replay", "birat2"),
        "contradiction: Weak97 IV: rX=546: -K^3 = 61/546, P_-4 = 2, P_-6 = 5, P_-10 = 20,",
        " P_-57 = 3540 > 3478\n",
    ),
    # a budget of 25 admits {4, 5, 7, 9}; index-bound prints its report first
    "index budget 25": (
        "import fanobasket.indexbound as indexbound\n"
        "from fanobasket.recovery import COST_UNIT\n"
        "indexbound.BUDGET = 25 * COST_UNIT\n",
        ("index-bound",),
        "contradiction: index bound: max r_X = 1260, not 840",
        "\n",
    ),
}
# fault -> what the command prints before the failed step; empty for the rest
FAULT_STDOUT = {"index budget 25": "max r_X = 1260; witnesses {4,5,7,9}; second max = 924\n"}


def _python(flags: list[str], script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *flags, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.mark.parametrize("flags", INTERPRETERS.values(), ids=INTERPRETERS.keys())
@pytest.mark.parametrize("fault", FAULTS)
def test_injected_fault_exits_1_with_the_step_named(fault, flags):
    patch, argv, prefix, suffix = FAULTS[fault]
    script = patch + (
        "import sys\n"
        "from fanobasket.cli import main\n"
        f"sys.exit(main({list(argv)!r}))\n"
    )
    done = _python(flags, script)
    assert done.returncode == 1, done.stderr
    assert done.stdout == FAULT_STDOUT.get(fault, "")
    assert done.stderr.startswith(prefix) and done.stderr.endswith(suffix), done.stderr


def test_optimized_replays_match_golden_bytes(tmp_path):
    script = (
        "import sys\n"
        "from fanobasket.cli import main\n"
        "out = sys.argv[1]\n"
        "codes = [main(['replay', 'list', '--out', out + '/p1_p2_zero_table.txt'])]\n"
        "for case in ('p2', 'p1', 'p0', 'birat1', 'birat2'):\n"
        "    codes.append(main(['replay', case, '--json', '--out', f'{out}/replay_{case}.json']))\n"
        "codes.append(main(['index-bound', '--json', '--out', out + '/index_bound.json']))\n"
        f"pencil = {PENCIL_630!r}\n"
        "codes.append(main([*pencil, '--out', out + '/pencil_630.txt']))\n"
        "codes.append(main([*pencil, '--json', '--out', out + '/pencil_630.json']))\n"
        "print(sys.flags.optimize, *codes)\n"
    )
    done = _python(["-O"], script, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1" + " 0" * 9 + "\n"
    names = ["p1_p2_zero_table.txt", "index_bound.json", "pencil_630.txt", "pencil_630.json"] + [
        f"replay_{case}.json" for case in ("p2", "p1", "p0", "birat1", "birat2")
    ]
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name


def _names(node) -> set[str]:
    """The exception names an `except` clause or `raise` statement mentions."""
    if node is None:
        return set()
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(elt) for elt in node.elts))
    if isinstance(node, ast.Call):
        return _names(node.func)
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def _tree(module: str | Path) -> ast.AST:
    """Parse a module of the package, or any file by its absolute path."""
    return ast.parse((PACKAGE / module).read_text(), filename=module)


def test_replay_modules_state_proof_steps_only_through_require():
    # pencil holds the 840 growth check, basket the kernels it rests on,
    # indexbound the index caps Weak97 reads, recovery the stage-0 tails
    # the P_-1 = 0 replay reads and canonical the unpacking they rest on
    modules = ("search.py", "birational.py", "pencil.py", "basket.py", "indexbound.py",
               "recovery.py", "canonical.py")
    for module in modules:
        for node in ast.walk(_tree(module)):
            assert not isinstance(node, ast.Assert), f"{module}:{node.lineno} assert"
            if isinstance(node, ast.Raise):
                assert "AssertionError" not in _names(node.exc), f"{module}:{node.lineno}"
    for node in ast.walk(_tree("cli.py")):
        if isinstance(node, ast.ExceptHandler):
            assert "AssertionError" not in _names(node.type), f"cli.py:{node.lineno}"


def _references(tree: ast.AST) -> dict[str, list[ast.AST]]:
    """name -> every Name, Attribute and import alias node that names it;
    strings and docstrings are no references."""
    out: dict[str, list[ast.AST]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.setdefault(node.id, []).append(node)
        elif isinstance(node, ast.Attribute):
            out.setdefault(node.attr, []).append(node)
        elif isinstance(node, ast.alias):
            out.setdefault(node.name, []).append(node)
    return out


def _definitions(tree: ast.AST) -> Iterator[tuple[str, ast.AST]]:
    """(qualified name, node) of every top-level function and class, and of
    every method of a top-level class, dunders excepted."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for d in tree.body:
        if isinstance(d, (*functions, ast.ClassDef)):
            yield d.name, d
        if isinstance(d, ast.ClassDef):
            yield from ((f"{d.name}.{m.name}", m) for m in d.body if isinstance(m, functions)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def _unreferenced(defining: list[ast.AST], users: list[ast.AST],
                  named: frozenset[str] = frozenset()) -> list[str]:
    """Definitions of `defining` that nothing in `users` names outside the
    definition's own body, and whose qualified name is not in `named`."""
    refs: dict[str, list[ast.AST]] = {}
    for tree in users:
        for name, nodes in _references(tree).items():
            refs.setdefault(name, []).extend(nodes)
    unused = []
    for tree in defining:
        for qualified, d in _definitions(tree):
            own = {id(node) for node in ast.walk(d)}
            if qualified not in named and all(id(node) in own for node in refs.get(d.name, ())):
                unused.append(qualified)
    return sorted(unused)


def _traced_entry_points() -> frozenset[str]:
    """The entry points of perfbench/tracer.py, functions and "Class.method"
    alike, which the benchmark wraps by name."""
    tracer = _tree(ROOT / "perfbench" / "tracer.py")
    entries = next(ast.literal_eval(node.value) for node in tracer.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "ENTRY_POINTS" for t in node.targets))
    return frozenset(target for _, _, target in entries)


def _src_unreferenced(named: frozenset[str] = frozenset()) -> list[str]:
    """Definitions of the package that no product path names, less `named`.
    The product paths are the package itself (the CLI included), the demos
    and the benchmark; an `__init__` export is no use on its own, so a public
    name needs a caller too."""
    package = {path.name: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
    callers = [tree for name, tree in package.items() if name != "__init__.py"]
    products = [_tree(path) for folder in ("demos", "perfbench")
                for path in sorted((ROOT / folder).rglob("*.py"))]
    return _unreferenced(list(package.values()), callers + products, named)


def test_src_holds_only_code_a_product_path_runs():
    # reference implementations that only tests call live in tests/oracles.py
    unused = _src_unreferenced(_traced_entry_points())
    assert not unused, f"src/fanobasket defines what no product path runs: {unused}"
    tests = Path(__file__).parent
    oracles = _tree(tests / "oracles.py")
    imported = [ast.Module(body=[node], type_ignores=[])
                for path in sorted(tests.glob("test_*.py")) for node in ast.walk(_tree(path))
                if isinstance(node, ast.ImportFrom) and node.module == "oracles"]
    unused = _unreferenced([oracles], [oracles] + imported)
    assert not unused, f"tests/oracles.py defines what no test imports: {unused}"


def test_only_these_names_stay_in_src_for_the_tracer_alone():
    # the benchmark tracer wraps its entry points by name, so the guard above
    # exempts them; these are the ones no product path calls, to move to
    # tests/oracles.py once the tracer binds the kernels that do the work
    assert _src_unreferenced() == [
        "Basket.delta", "Basket.l_neg", "admissible_index_sets_with_lcm", "s_set"]


def test_package_exports_exactly_what_its_init_imports():
    imported = [alias.name for node in _tree("__init__.py").body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(set(imported)) == len(imported)
    assert len(set(fanobasket.__all__)) == len(fanobasket.__all__)
    assert set(fanobasket.__all__) == set(imported)
