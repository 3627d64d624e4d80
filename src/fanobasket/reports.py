"""Machine-checked replay reports: survivors, certificates, conclusions, and
the package's one indent-2 JSON writer (`json.dumps` indents in pure Python)."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .basket import Record, WeightedBasket

SURVIVOR_HORIZON = 12  # degrees of the P vector a survivor row reports


def json_indent2(value, pad: str = "\n") -> str:
    """What `json.dumps` writes at an indent of 2, byte for byte, for str,
    int, bool, None, and lists and str-keyed dicts of them, dispatched on
    the exact type: anything else raises TypeError.  `pad` closes the value."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    inner = pad + "  "
    if kind is list:
        items, ends = [json_indent2(v, inner) for v in value], "[]"
    elif kind is dict:  # encode_basestring_ascii raises TypeError on a key not a str
        items, ends = [encode_basestring_ascii(k) + ": " + json_indent2(v, inner)
                       for k, v in value.items()], "{}"
    else:
        raise TypeError(f"{kind.__name__} is not written as JSON")
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1] if items else ends


class ReplayContradiction(Exception):
    """A named proof step of a replay failed."""


def require(cond: bool, msg: str) -> None:
    """Check one proof step of a replay; `msg` names the step.

    Unlike `assert`, the check runs under `python -O` as well.
    """
    if not cond:
        raise ReplayContradiction(msg)


class SurvivorRow(NamedTuple):
    wb: WeightedBasket
    notes: dict

    def to_json(self) -> dict:
        seq = self.wb.plurigenera(SURVIVOR_HORIZON)
        return {
            "basket": self.wb.basket.text(),
            "p1": self.wb.p1,
            "volume": str(self.wb.volume()),
            "rX": self.wb.gorenstein_index(),
            "rmax": self.wb.basket.r_max(),
            "P": list(seq.values),
            **{k: v for k, v in sorted(self.notes.items())},
        }


class EliminatedRow(NamedTuple):
    wb: WeightedBasket
    certificate: str
    branch: str

    def to_json(self) -> dict:
        return {
            "basket": self.wb.basket.text(),
            "p1": self.wb.p1,
            "certificate": self.certificate,
            "branch": self.branch,
        }


class ReplayReport(Record):
    """One replay, filled in as it runs; it starts with no survivors,
    eliminations, leaves, coverage or conclusion."""

    __slots__ = ("case", "constraints", "survivors", "eliminated", "conclusion", "axioms",
                 "leaves", "coverage")

    def __init__(self, case: str, constraints: str, axioms: list[str]) -> None:
        self.case, self.constraints, self.axioms = case, constraints, axioms
        self.survivors, self.eliminated, self.leaves, self.coverage = [], [], [], []
        self.conclusion = ""

    def to_json(self) -> dict:
        out = {
            "case": self.case,
            "constraints": self.constraints,
            "survivors": [s.to_json() for s in self.survivors],
            "eliminated": [e.to_json() for e in self.eliminated],
            "conclusion": self.conclusion,
        }
        if self.axioms:
            out["axioms"] = sorted(set(self.axioms))
        if self.leaves:
            out["leaves"] = self.leaves
        if self.coverage:
            out["coverage"] = self.coverage
        return out

    def json_text(self) -> str:
        return json_indent2(self.to_json())

    def render(self) -> str:
        lines = [f"case: {self.case}", f"constraints: {self.constraints}"]
        if self.leaves:
            lines.append(f"leaves ({len(self.leaves)}):")
            for leaf in self.leaves:
                lines.append("  " + json.dumps(leaf, sort_keys=False))
        lines.append(f"survivors ({len(self.survivors)}):")
        for s in self.survivors:
            row, notes = s.to_json(), dict(sorted(s.notes.items()))
            lines.append(
                f"  {row['basket']}  p1={row['p1']}  -K^3={row['volume']}"
                f"  rX={row['rX']}  P={row['P']}"
                + (f"  {notes}" if notes else "")
            )
        lines.append(f"eliminated ({len(self.eliminated)}):")
        for e in self.eliminated:
            lines.append(f"  [{e.branch}] {e.wb.basket.text()}  p1={e.wb.p1}: {e.certificate}")
        if self.coverage:
            lines.append("coverage:")
            lines.extend(f"  {note}" for note in self.coverage)
        if self.axioms:
            lines.append("axioms consumed: " + ", ".join(sorted(set(self.axioms))))
        lines.append(f"conclusion: {self.conclusion}")
        return "\n".join(lines)
