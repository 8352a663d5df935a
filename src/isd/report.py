"""Report assembly shared by the command-line front end.

Numbers are stringified once, when a row is added, so the JSON and text
renderings can never disagree about a value.  Rationals stay exact,
floats use repr (shortest round-trip form), infinities print as "inf".
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any


def format_number(x: Any) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return repr(x)
    return str(x)


@dataclass
class Row:
    label: str
    value: str
    note: str = ""


@dataclass
class Section:
    title: str
    rows: list[Row] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)

    def add(self, label: str, value: Any, note: str = "") -> None:
        self.rows.append(Row(label, format_number(value), note))

    def say(self, line: str) -> None:
        self.lines.append(line)


@dataclass
class Report:
    title: str
    sections: list[Section] = field(default_factory=list)
    provenance: dict[str, str] = field(default_factory=dict)
    ok: bool = True

    def section(self, title: str) -> Section:
        s = Section(title)
        self.sections.append(s)
        return s

    def stamp(self, key: str, value: Any) -> None:
        self.provenance[key] = format_number(value)

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "sections": [
                {
                    "title": s.title,
                    "rows": [
                        {"label": r.label, "value": r.value, **({"note": r.note} if r.note else {})}
                        for r in s.rows
                    ],
                    "lines": list(s.lines),
                }
                for s in self.sections
            ],
            "provenance": dict(sorted(self.provenance.items())),
        }

    def to_text(self, color: bool | None = None) -> str:
        if color is None:
            color = use_color()
        bold = "\x1b[1m" if color else ""
        dim = "\x1b[2m" if color else ""
        reset = "\x1b[0m" if color else ""
        out = [f"{bold}{self.title}{reset}"]
        for s in self.sections:
            out.append("")
            out.append(f"{bold}{s.title}{reset}")
            width = max((len(r.label) for r in s.rows), default=0)
            for r in s.rows:
                line = f"  {r.label.ljust(width)}  {r.value}"
                if r.note:
                    line += f"  {dim}({r.note}){reset}"
                out.append(line)
            for line in s.lines:
                out.append(f"  {line}")
        if self.provenance:
            out.append("")
            out.append(f"{dim}provenance{reset}")
            for k, v in sorted(self.provenance.items()):
                out.append(f"  {k}: {v}")
        return "\n".join(out) + "\n"


def use_color() -> bool:
    if os.environ.get("NO_COLOR"):
        return False
    return bool(getattr(sys.stdout, "isatty", lambda: False)())
