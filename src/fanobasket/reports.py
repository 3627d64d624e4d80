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
    the exact type; a report row writes itself, and anything else raises
    TypeError.  `pad` closes the value."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    if kind is list:
        members, ends = value, "[]"
    elif kind is dict:
        members, ends = value.values(), "{}"
    elif kind is SurvivorRow or kind is EliminatedRow:
        return value.json_at(pad)
    else:
        raise TypeError(f"{kind.__name__} is not written as JSON")
    if not value:
        return ends
    inner = pad + "  "
    # str and int members are written inline, the rest by one call each
    items = [encode_basestring_ascii(v) if type(v) is str else int.__repr__(v) if type(v) is int
             else json_indent2(v, inner) for v in members]
    if kind is dict:  # encode_basestring_ascii raises TypeError on a key not a str
        items = [encode_basestring_ascii(k) + ": " + item for k, item in zip(value, items)]
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1]


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

    def json_at(self, pad: str) -> str:
        """`json_indent2(self.to_json(), pad)`, written straight from the row."""
        if not _SURVIVOR_KEYS.isdisjoint(self.notes):  # a note overrides a row key in place
            return json_indent2(self.to_json(), pad)
        wb, field = self.wb, pad + "  "
        entry = field + "  "
        text = (f'{{{field}"basket": {encode_basestring_ascii(wb.basket.text())},'
                f'{field}"p1": {int.__repr__(wb.p1)},{field}"volume": "{wb.volume()!s}",'
                f'{field}"rX": {wb.gorenstein_index()},{field}"rmax": {wb.basket.r_max()},'
                f'{field}"P": [{entry}'
                + f",{entry}".join(map(int.__repr__, wb.plurigenera(SURVIVOR_HORIZON).values))
                + f"{field}]")
        for k, v in sorted(self.notes.items()):
            text += f",{field}{encode_basestring_ascii(k)}: {json_indent2(v, field)}"
        return text + pad + "}"


_SURVIVOR_KEYS = frozenset(("basket", "p1", "volume", "rX", "rmax", "P"))


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

    def json_at(self, pad: str) -> str:
        """`json_indent2(self.to_json(), pad)`, written straight from the row."""
        field = pad + "  "
        return (f'{{{field}"basket": {encode_basestring_ascii(self.wb.basket.text())},'
                f'{field}"p1": {int.__repr__(self.wb.p1)},'
                f'{field}"certificate": {encode_basestring_ascii(self.certificate)},'
                f'{field}"branch": {encode_basestring_ascii(self.branch)}{pad}}}')


class ReplayReport(Record):
    """One replay, filled in as it runs; it starts with no survivors,
    eliminations, leaves, coverage or conclusion."""

    __slots__ = ("case", "constraints", "survivors", "eliminated", "conclusion", "axioms",
                 "leaves", "coverage")

    def __init__(self, case: str, constraints: str, axioms: list[str]) -> None:
        self.case, self.constraints, self.axioms = case, constraints, axioms
        self.survivors, self.eliminated, self.leaves, self.coverage = [], [], [], []
        self.conclusion = ""

    def _fields(self) -> dict:
        """What `to_json` gives, with the rows themselves in place of their dicts."""
        out = {
            "case": self.case,
            "constraints": self.constraints,
            "survivors": self.survivors,
            "eliminated": self.eliminated,
            "conclusion": self.conclusion,
        }
        if self.axioms:
            out["axioms"] = sorted(set(self.axioms))
        if self.leaves:
            out["leaves"] = self.leaves
        if self.coverage:
            out["coverage"] = self.coverage
        return out

    def to_json(self) -> dict:
        out = self._fields()
        out["survivors"] = [s.to_json() for s in self.survivors]
        out["eliminated"] = [e.to_json() for e in self.eliminated]
        return out

    def json_text(self) -> str:
        """`json_indent2(self.to_json())`, each row written by its own writer."""
        return json_indent2(self._fields())

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
