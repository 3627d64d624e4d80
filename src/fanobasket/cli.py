"""Command-line front end.

Subcommands: rr, enumerate, replay, index-bound, pencil, thresholds, wci.
Exit codes: 0 success, 1 a proof step failed (a replay or index-bound names
the step on stderr, e.g. a maximum other than 840), 2 usage error, malformed
or out-of-bounds input (degrees and horizons lie in 1..MAX_DEGREE, a Hilbert
series has at most MAX_SERIES terms, a basket's distinct local indices sum to
at most MAX_SERIES), or an --out file that cannot be written.  All tables
print exact fractions, never decimals.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from .basket import Basket, BasketParseError, WeightedBasket
from .birational import BirationalityInputs, replay_birationality, thm_main_threshold
from .indexbound import max_index_given_rmax, max_index_report
from .pencil import non_pencil_threshold, thm1_threshold_from_bounds
from .reports import ReplayContradiction, json_indent2, require
from .search import ConstraintSet, enumerate_geometric, replay_delta1
from .wci import WeightedCI, anti_plurigenera_from_hilbert, fit_basket


MAX_DEGREE = 1000  # bound on --m, --upto and --horizon
# bound on the Hilbert series length upto * iota, and on the sum of the
# distinct local indices r of a --basket, since the Riemann-Roch kernels keep
# r entries per distinct index
MAX_SERIES = 100_000


def _parse_fraction(flag: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} needs an exact fraction, got {text!r}") from None


def _parse_ints(flag: str, text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} needs comma-separated integers, got {text!r}") from None


def _bounded(flag: str, value: int) -> int:
    if not 1 <= value <= MAX_DEGREE:
        raise ValueError(f"{flag} must lie in 1..{MAX_DEGREE}, got {value}")
    return value


def _parse_mrange(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        ms = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        ms = range(0)
    if not ms or ms.start < 1 or ms.stop > MAX_DEGREE + 1:
        raise ValueError(f"--m needs degrees 1 <= lo <= hi <= {MAX_DEGREE}, got {text!r}")
    return ms


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _wb_from_args(args) -> WeightedBasket:
    basket = Basket.parse(args.basket)
    total = sum({r for (_, r), _ in basket.counts()})
    if total > MAX_SERIES:
        raise ValueError(f"--basket distinct local indices sum to {total}, over {MAX_SERIES}")
    return WeightedBasket(basket, args.p1)


def cmd_rr(args) -> int:
    wb = _wb_from_args(args)
    ms = _parse_mrange(args.m)
    seq = wb.plurigenera(max(ms))
    if args.json:
        payload = wb.to_json()
        payload["volume"] = str(wb.volume())
        payload["rX"] = wb.gorenstein_index()
        payload["P"] = {f"-{m}": seq[m] for m in ms}
        _emit(args, json_indent2(payload))
        return 0
    lines = [
        f"basket {wb.basket.text() or 'empty'}  p1 = {wb.p1}",
        f"-K^3 = {wb.volume()}   r_X = {wb.gorenstein_index()}"
        f"   r_max = {wb.basket.r_max()}",
    ]
    lines.append("  ".join(f"P_-{m} = {seq[m]}" for m in ms))
    _emit(args, "\n".join(lines))
    return 0


def render_enumeration(survivors, horizon: int = 8) -> str:
    header = (
        f"{'No.':>3}  {'basket':40s} {'-K^3':>8}  "
        + " ".join(f"{'P-' + str(m):>4}" for m in range(3, horizon + 1))
    )
    lines = [header]
    for idx, wb in enumerate(survivors, start=1):
        seq = wb.plurigenera(horizon)
        cells = " ".join(f"{seq[m]:>4}" for m in range(3, horizon + 1))
        lines.append(
            f"{idx:>3}  {wb.basket.text():40s} {str(wb.volume()):>8}  {cells}"
        )
    return "\n".join(lines)


def table_rows() -> list[WeightedBasket]:
    """The P_-2 = 0 survivors of the P_-1 = 0 replay, which checked each
    against the 23-row table, in table order."""
    rows = [s for s in replay_delta1("P1_eq_0").survivors if s.notes["branch"] == "P2=0"]
    return [s.wb for s in sorted(rows, key=lambda s: s.notes["no"])]


def cmd_enumerate(args) -> int:
    cs = ConstraintSet(
        p_exact={1: args.p1, **({2: args.p2} if args.p2 is not None else {})},
        fano_strict=not args.weak,
        horizon=_bounded("--horizon", args.horizon),
    )
    survivors = enumerate_geometric(cs)
    if args.json:
        _emit(args, json_indent2([wb.to_json() for wb in survivors]))
    else:
        _emit(args, render_enumeration(survivors, min(args.horizon, 8)))
    return 0


def cmd_replay(args) -> int:
    if args.case == "list":
        rows = table_rows()
        if args.json:
            _emit(args, json_indent2([wb.to_json() for wb in rows]))
        else:
            _emit(args, render_enumeration(rows))
        return 0
    if args.case in ("p2", "p1", "p0"):
        family = {"p2": "P1_eq_2", "p1": "P1_eq_1", "p0": "P1_eq_0"}[args.case]
        rep = replay_delta1(family)
    else:
        target = {"birat1": "QFano39", "birat2": "Weak97"}[args.case]
        rep = replay_birationality(target)
    _emit(args, rep.json_text() if args.json else rep.render())
    return 0


def cmd_index_bound(args) -> int:
    if args.rmax is not None:
        value = max_index_given_rmax(args.rmax)
        if args.json:
            _emit(args, json.dumps({"rmax": args.rmax, "max_lcm": value}))
        else:
            _emit(args, f"max r_X with largest local index {args.rmax}: {value}")
        return 0
    report = max_index_report()
    if args.json:
        _emit(args, json_indent2(report.to_json()))
    else:
        wit = ",".join("{" + ",".join(map(str, w)) + "}" for w in report.witnesses)
        _emit(
            args,
            f"max r_X = {report.max_lcm}; witnesses {wit};"
            f" second max = {report.second_max}",
        )
    require(report.max_lcm == 840, f"index bound: max r_X = {report.max_lcm}, not 840")
    return 0


def cmd_pencil(args) -> int:
    wb = _wb_from_args(args)
    t = _parse_fraction("--t", args.t)
    scan = non_pencil_threshold(wb, _bounded("--horizon", args.horizon))
    star = thm1_threshold_from_bounds(wb.gorenstein_index(), wb.volume(), wb.basket.r_max(), t)
    if args.json:
        payload = {
            "basket": wb.basket.text(),
            "p1": wb.p1,
            "volume": str(wb.volume()),
            "rX": wb.gorenstein_index(),
            "first_not_pencil": scan.first_not_pencil,
            "growth_threshold": star,
            "verdicts": [
                {"m": v.m, "verdict": v.verdict, "witness": v.witness}
                for v in scan.verdicts
            ],
        }
        _emit(args, json_indent2(payload))
        return 0
    lines = [
        f"basket {wb.basket.text()}  p1 = {wb.p1}  -K^3 = {wb.volume()}"
        f"  r_X = {wb.gorenstein_index()}",
        f"growth threshold (t = {t}): P_-m >= r_X(-K^3)m + 2 for m >= {star}",
        f"{'m':>4} {'P_-m':>8} {'r_X(-K^3)m+1':>14}  verdict",
    ]
    for v in scan.verdicts:
        lines.append(f"{v.m:>4} {scan.seq[v.m]:>8} {scan.bounds[v.m]:>14}  {v.verdict}")
    lines.append(f"first degree not composed with a pencil: {scan.first_not_pencil}")
    _emit(args, "\n".join(lines))
    return 0


def cmd_thresholds(args) -> int:
    mu0 = _parse_fraction("--mu0", args.mu0)
    inp = BirationalityInputs(
        m0=args.m0, m1=args.m1, mu0_upper=mu0, rmax=args.rmax, nu0=args.nu0
    )
    value = thm_main_threshold(inp, args.variant)
    if args.json:
        _emit(args, json.dumps({"variant": args.variant, "threshold": value}))
    else:
        _emit(args, str(value))
    return 0


def cmd_wci(args) -> int:
    weights = _parse_ints("--weights", args.weights)
    degrees = _parse_ints("--degrees", args.degrees) if args.degrees else ()
    wci = WeightedCI(weights, degrees)
    if _bounded("--upto", args.upto) * wci.fano_index > MAX_SERIES:
        raise ValueError(f"--upto times the Fano index exceeds {MAX_SERIES} series terms")
    p = anti_plurigenera_from_hilbert(wci, args.upto)
    fits = fit_basket(p) if args.fit else None
    if args.json:
        payload = {
            "weights": list(weights),
            "degrees": list(degrees),
            "fano_index": wci.fano_index,
            "P": list(p.values),
        }
        if fits is not None:
            payload["fits"] = [
                {**wb.to_json(), "volume": str(wb.volume())} for wb in fits
            ]
        _emit(args, json_indent2(payload))
        return 0
    lines = ["m,P_-m"] + [f"{m},{p[m]}" for m in range(1, len(p) + 1)]
    if fits is not None:
        lines.append("fits:")
        for wb in fits:
            lines.append(f"  {wb.basket.text()}  p1={wb.p1}  -K^3={wb.volume()}")
    _emit(args, "\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanobasket",
        description="exact basket arithmetic for (weak) Fano 3-folds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--out", help="write the report to a file")

    p = sub.add_parser("rr", help="anti-plurigenera of a weighted basket")
    p.add_argument("--basket", required=True)
    p.add_argument("--p1", type=int, required=True)
    p.add_argument("--m", default="1..12", help="degree or range, e.g. 1..8")
    common(p)
    p.set_defaults(func=cmd_rr)

    p = sub.add_parser("enumerate", help="enumerate geometric weighted baskets")
    p.add_argument("--p1", type=int, required=True)
    p.add_argument("--p2", type=int)
    p.add_argument("--weak", action="store_true", help="relax gamma > 0 to >= 0")
    p.add_argument("--horizon", type=int, default=12)
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("replay", help="machine-checked case-analysis replays")
    p.add_argument("case", choices=["list", "p2", "p1", "p0", "birat1", "birat2"])
    common(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("index-bound", help="Gorenstein index brute force")
    p.add_argument("--rmax", type=int)
    common(p)
    p.set_defaults(func=cmd_index_bound)

    p = sub.add_parser("pencil", help="pencil verdicts and growth thresholds")
    p.add_argument("--basket", required=True)
    p.add_argument("--p1", type=int, required=True)
    p.add_argument("--t", default="8", help="exact fraction in (0, 37]")
    p.add_argument("--horizon", type=int, default=20)
    common(p)
    p.set_defaults(func=cmd_pencil)

    p = sub.add_parser("thresholds", help="birationality threshold formulas")
    p.add_argument("--m0", type=int, required=True)
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--mu0", required=True, help="exact fraction")
    p.add_argument("--rmax", type=int)
    p.add_argument("--nu0", type=int)
    p.add_argument("--variant", choices=["i", "ii", "iii"], required=True)
    common(p)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("wci", help="Hilbert series of weighted complete intersections")
    p.add_argument("--weights", required=True)
    p.add_argument("--degrees", default="")
    p.add_argument("--upto", type=int, default=40)
    p.add_argument("--fit", action="store_true")
    common(p)
    p.set_defaults(func=cmd_wci)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ReplayContradiction as exc:
        print(f"contradiction: {exc}", file=sys.stderr)
        return 1
    except (BasketParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
