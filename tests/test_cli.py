"""CLI surface: subcommands, exit codes, JSON round-trips, golden table."""

import json
from pathlib import Path

import fanobasket.cli as cli
from fanobasket.basket import Basket, WeightedBasket
from fanobasket.cli import main
from fanobasket.search import SearchBudgetExceeded

GOLDEN = Path(__file__).parent / "golden" / "p1_p2_zero_table.txt"


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
    wb = WeightedBasket.from_json(payload)
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


def test_thresholds_x6d_example(capsys):
    code, out = run(
        capsys, "thresholds", "--m0", "1", "--m1", "2", "--mu0", "1",
        "--rmax", "3", "--nu0", "1", "--variant", "iii",
    )
    assert code == 0 and out.strip() == "9"


def test_pencil_table(capsys):
    code, out = run(
        capsys, "pencil", "--basket", "2x(1,2),(2,5),(3,7),(4,9)", "--p1", "0",
        "--horizon", "8",
    )
    assert code == 0
    assert "-K^3 = 43/315" in out and "r_X = 630" in out


def test_replay_list_matches_golden_bytes(capsys):
    code, out = run(capsys, "replay", "list")
    assert code == 0
    assert out == GOLDEN.read_text()


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


def test_search_budget_exceeded_exits_2(capsys, monkeypatch):
    def refuse(cs):
        raise SearchBudgetExceeded("max_r below 24 could silently drop admissible tails")

    monkeypatch.setattr(cli, "enumerate_geometric", refuse)
    assert main(["enumerate", "--p1", "0"]) == 2
    assert capsys.readouterr().err == (
        "error: max_r below 24 could silently drop admissible tails\n"
    )
