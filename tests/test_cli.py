"""CLI surface: subcommands, exit codes, JSON round-trips, golden table."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import fanobasket.cli as cli
from fanobasket.basket import Basket, WeightedBasket
from fanobasket.cli import main
from fanobasket.tables import P1_P2_ZERO_TABLE
from oracles import weighted_basket_from_json

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "p1_p2_zero_table.txt"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rr_row_example(capsys):
    code, out = run(
        capsys, "rr", "--basket", "2x(1,2),3x(2,5),(1,3),(1,4)", "--p1", "0",
        "--m", "1..8",
    )
    assert code == 0
    assert out.rstrip().endswith("P_-8 = 2")
    assert "-K^3 = 1/60" in out


def test_rr_json_round_trips_through_grammar(capsys):
    code, out = run(
        capsys, "rr", "--basket", "5x(1,2),2x(1,3),(2,7),(1,4)", "--p1", "0",
        "--m", "8", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    wb = weighted_basket_from_json(payload)
    assert wb.basket == Basket.parse("5x(1,2),2x(1,3),(2,7),(1,4)")
    assert payload["P"]["-8"] == 2


def test_index_bound_text_and_json(capsys):
    code, out = run(capsys, "index-bound")
    assert code == 0
    assert "max r_X = 840" in out
    assert "{3,5,7,8}" in out and "{2,3,5,7,8}" in out
    code, out = run(capsys, "index-bound", "--json")
    data = json.loads(out)
    assert data["max"] == 840 and data["second_max"] == 660
    code, out = run(capsys, "index-bound", "--rmax", "18")
    assert code == 0 and out.strip().endswith("90")


def test_index_bound_off_840_names_the_failed_step(capsys, monkeypatch):
    report = cli.max_index_report()
    wrong = report._replace(max_lcm=660, witnesses=((4, 5, 11, 3),))
    monkeypatch.setattr(cli, "max_index_report", lambda: wrong)
    assert main(["index-bound"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "max r_X = 660; witnesses {4,5,11,3}; second max = 660\n"
    assert captured.err == "contradiction: index bound: max r_X = 660, not 840\n"
    assert main(["index-bound", "--json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["max"] == 660
    assert captured.err == "contradiction: index bound: max r_X = 660, not 840\n"


def test_thresholds_x6d_example(capsys):
    code, out = run(
        capsys, "thresholds", "--m0", "1", "--m1", "2", "--mu0", "1",
        "--rmax", "3", "--nu0", "1", "--variant", "iii",
    )
    assert code == 0 and out.strip() == "9"


PENCIL_630 = ["pencil", "--basket", "2x(1,2),(2,5),(3,7),(4,9)", "--p1", "0", "--horizon", "61"]


def test_pencil_table(capsys):
    """The index-630 basket through degree 61, where it first leaves the
    pencil, is pinned as text and as JSON.

    Regenerate only for an intended change, e.g.
    PYTHONPATH=src python -m fanobasket.cli pencil --basket "2x(1,2),(2,5),(3,7),(4,9)"
    --p1 0 --horizon 61 --json --out tests/golden/pencil_630.json
    """
    for flags, golden in (([], "pencil_630.txt"), (["--json"], "pencil_630.json")):
        code, out = run(capsys, *PENCIL_630, *flags)
        assert code == 0
        assert out == (GOLDEN_DIR / golden).read_text(), golden


def test_pencil_text_builds_the_plurigenera_once(capsys, monkeypatch):
    calls = []
    plurigenera = WeightedBasket.plurigenera

    def counted(self, upto):
        calls.append(upto)
        return plurigenera(self, upto)

    monkeypatch.setattr(WeightedBasket, "plurigenera", counted)
    code, out = run(capsys, *PENCIL_630[:-1], "1000")
    assert code == 0 and out.endswith("first degree not composed with a pencil: 61\n")
    assert calls == [1000]


def test_replay_list_matches_golden_bytes(capsys):
    code, out = run(capsys, "replay", "list")
    assert code == 0
    assert out == GOLDEN.read_text()


def test_replay_list_json_is_the_table_rows_in_order(capsys):
    code, out = run(capsys, "replay", "list", "--json")
    assert code == 0
    rows = [weighted_basket_from_json(data) for data in json.loads(out)]
    assert rows == cli.table_rows()
    assert [wb.basket.text() for wb in rows] == [
        row.basket for row in sorted(P1_P2_ZERO_TABLE, key=lambda row: row.no)
    ]


@pytest.mark.parametrize(
    "command", ["replay p2", "replay p1", "replay p0", "replay birat1", "replay birat2", "index-bound"]
)
def test_json_reports_match_golden_bytes(command, tmp_path):
    """The full JSON reports (notes, P vectors, leaf checks) are pinned.

    Regenerate a file only for an intended change, e.g.
    PYTHONPATH=src python -m fanobasket.cli replay p0 --json --out tests/golden/replay_p0.json
    (and likewise p2, p1, birat1, birat2, and index-bound --json).
    """
    golden = GOLDEN_DIR / (command.replace(" ", "_").replace("-", "_") + ".json")
    out = tmp_path / golden.name
    assert main([*command.split(), "--json", "--out", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()


def _run_capped(*argv: str) -> subprocess.CompletedProcess:
    """Run Python in a child with 512 MiB of address space and a timeout, so
    an allocation that grows with a basket's counts fails instead of thrashing."""

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env,
        timeout=60, preexec_fn=cap,
    )


def test_huge_counts_cost_one_term():
    huge = "100000000x(1,2)"
    done = _run_capped(
        "-c",
        "from fanobasket.basket import Basket\n"
        f"b = Basket.parse({huge!r})\n"
        "print(len(b), b.sigma(), b.text())",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"100000000 100000000 {huge}\n"
    done = _run_capped("-m", "fanobasket.cli", "rr", "--basket", huge, "--p1", "0", "--m", "1..3")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "P_-1 = 0  P_-2 = 99999990  P_-3 = 299999965"
    done = _run_capped("-m", "fanobasket.cli", "pencil", "--basket", huge, "--p1", "0")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"basket {huge}  p1 = 0  -K^3 = 49999994  r_X = 2")


def test_import_loads_no_dataclasses_or_inspect():
    # every CLI call and benchmark pass is a fresh interpreter, so the records
    # are NamedTuples or slotted classes: `dataclasses` would import `inspect`
    done = _run_capped(
        "-c",
        "import fanobasket, fanobasket.cli, sys\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_replay_p2_json(capsys):
    code, out = run(capsys, "replay", "p2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["conclusion"] == "delta_1 <= 6"


def test_enumerate_weak_matches_strict(capsys):
    code_s, out_s = run(capsys, "enumerate", "--p1", "0", "--p2", "0", "--json")
    code_w, out_w = run(
        capsys, "enumerate", "--p1", "0", "--p2", "0", "--weak", "--json"
    )
    assert code_s == code_w == 0
    assert json.loads(out_s) == json.loads(out_w)
    assert len(json.loads(out_s)) == 23


def test_wci_csv_and_fit(capsys):
    code, out = run(
        capsys, "wci", "--weights", "1,8,9,10,12,15", "--degrees", "24,30",
        "--upto", "9",
    )
    assert code == 0
    assert "8,2" in out and "9,3" in out


def test_usage_errors_exit_2(capsys):
    assert main(["rr", "--basket", "(1,2", "--p1", "0"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["thresholds", "--m0", "1", "--m1", "2", "--mu0", "1",
                 "--variant", "ii"]) == 2  # missing rmax


def test_replay_birat_exit_codes(capsys):
    code, out = run(capsys, "replay", "birat1")
    assert code == 0 and "m >= 39" in out
    code, out = run(capsys, "replay", "birat2", "--json")
    assert code == 0
    data = json.loads(out)
    assert max(leaf["threshold"] for leaf in data["leaves"]) == 97


def test_rr_degree_range_must_be_ordered_and_positive(capsys):
    for m in ("0..3", "3..1", "0", "-2"):
        assert main(["rr", "--basket", "(1,2)", "--p1", "1", "--m", m]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --m needs degrees 1 <= lo <= hi"), err
    assert main(["rr", "--basket", "(1,2)", "--p1", "1", "--m", "x..3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


HUGE_RANGE = "1.." + "9" * 20
BAD_INPUTS = {
    "basket grammar": (["rr", "--basket", "(1,2)(1,3)", "--p1", "0"],
                       "error: cannot read basket text from '(1,3)'"),
    "--mu0": (["thresholds", "--m0", "1", "--m1", "2", "--mu0", "1/0", "--variant", "i"],
              "error: --mu0 needs an exact fraction, got '1/0'"),
    "--t": (["pencil", "--basket", "(1,2)", "--p1", "3", "--t", "1/0"],
            "error: --t needs an exact fraction, got '1/0'"),
    "pinned beyond horizon": (["enumerate", "--p1", "0", "--p2", "0", "--horizon", "1"],
                              "error: horizon 1 must be >= 1 and >= every pinned degree"),
    "zero horizon": (["enumerate", "--p1", "0", "--p2", "0", "--horizon", "0"],
                     "error: --horizon must lie in 1..1000, got 0"),
    "open range": (["rr", "--basket", "(1,2)", "--p1", "1", "--m", "1.."],
                   "error: --m needs degrees 1 <= lo <= hi <= 1000, got '1..'"),
    "--weights": (["wci", "--weights", "1,a"],
                  "error: --weights needs comma-separated integers, got '1,a'"),
    "--degrees": (["wci", "--weights", "1,2", "--degrees", "3,,4"],
                  "error: --degrees needs comma-separated integers, got '3,,4'"),
    "huge range": (["rr", "--basket", "(1,2)", "--p1", "1", "--m", HUGE_RANGE],
                   f"error: --m needs degrees 1 <= lo <= hi <= 1000, got '{HUGE_RANGE}'"),
    "pencil horizon": (["pencil", "--basket", "(1,2)", "--p1", "3", "--horizon", "1001"],
                       "error: --horizon must lie in 1..1000, got 1001"),
    "enumerate horizon": (["enumerate", "--p1", "0", "--horizon", "100000"],
                          "error: --horizon must lie in 1..1000, got 100000"),
    "--upto": (["wci", "--weights", "1,5,6,22,33", "--degrees", "66", "--upto", "1001"],
               "error: --upto must lie in 1..1000, got 1001"),
    "series": (["wci", "--weights", "1,1,1,1,1000", "--upto", "1000"],
               "error: --upto times the Fano index exceeds 100000 series terms"),
    "short fit": (["wci", "--weights", "1,5,6,22,33", "--degrees", "66", "--upto", "4", "--fit"],
                  "error: need at least P_{-1}..P_{-5} to anchor a fit"),
    "unwritable --out": (["replay", "birat1", "--out", "/nonexistent/dir/x"],
                         "error: [Errno 2] No such file or directory: '/nonexistent/dir/x'"),
    "local index": (["rr", "--basket", "(99999999999,100000000000)", "--p1", "0"],
                    "error: --basket distinct local indices sum to 100000000000, over 100000"),
    "local index sum": (["pencil", "--basket", "(1,99989),(1,99991)", "--p1", "0"],
                        "error: --basket distinct local indices sum to 199980, over 100000"),
    "--rmax": (["thresholds", "--m0", "1", "--m1", "2", "--mu0", "1", "--rmax", "-3",
                "--variant", "ii"],
               "error: rmax must be >= 1, got -3"),
    "--nu0": (["thresholds", "--m0", "1", "--m1", "2", "--mu0", "1", "--rmax", "3",
               "--nu0", "0", "--variant", "iii"],
              "error: nu0 must be >= 1, got 0"),
    "negative --p1": (["enumerate", "--p1", "-1"], "error: pinned P_-1 must be >= 0, got -1"),
    "negative --p2": (["enumerate", "--p1", "0", "--p2", "-1"],
                      "error: pinned P_-2 must be >= 0, got -1"),
    # the constructor checks of the slotted records
    "zero --m0": (["thresholds", "--m0", "0", "--m1", "2", "--mu0", "1", "--variant", "i"],
                  "error: need 1 <= m0 <= m1"),
    "negative --mu0": (["thresholds", "--m0", "1", "--m1", "2", "--mu0", "-1", "--variant", "i"],
                       "error: mu0 upper bound must be positive"),
    "negative rr --p1": (["rr", "--basket", "(1,2)", "--p1", "-1"],
                         "error: p1 must be a non-negative integer"),
    "zero weight": (["wci", "--weights", "0"], "error: weights must be positive"),
    "zero degree": (["wci", "--weights", "1,2", "--degrees", "0"],
                    "error: degrees must be positive"),
}


def test_bad_inputs_exit_2_with_one_line(capsys):
    for name, (argv, message) in BAD_INPUTS.items():
        assert main(argv) == 2, name
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message + "\n", (name, captured.err)


def test_inputs_at_the_bounds_still_run(capsys):
    assert main(["rr", "--basket", "(1,2)", "--p1", "1", "--m", "1000"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("P_-1000 = -584206749")
    # Fano index 100: the series has exactly MAX_SERIES terms
    assert main(["wci", "--weights", "1,1,1,1,96", "--upto", "1000"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("1000,43489628430510466")
    # a prime local index just under MAX_SERIES
    assert main(["rr", "--basket", "(1,99991)", "--p1", "0"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("P_-12 = -1639")
    assert main(["pencil", "--basket", "(1,2)", "--p1", "3", "--t", "16/2"]) == 0
    assert "growth threshold (t = 8)" in capsys.readouterr().out


def test_seed_flag_is_gone(capsys):
    assert main(["index-bound", "--seed", "3"]) == 2
