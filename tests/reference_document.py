"""The document codec's original rational parse and value schema, kept as
the reference.

``isd.document`` reads a canonical rational string (``n`` or ``n/d`` in
ASCII digits) with ``int`` and ``gcd``, and hands every other spelling to
``Fraction``; it writes each value straight to text.  The copies here parse
every string with ``Fraction`` and lay a value out as the JSON tree the
seed writer walked.  The property tests check that both sides give the same
lowest terms or the same refusal text, and the same tree.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from isd.errors import DocumentParseError


def rational_terms(s: str, where: str) -> tuple[int, int]:
    """The seed loader's parse of the rational string ``s`` at ``where``,
    as (numerator, denominator) in lowest terms."""
    try:
        q = Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise DocumentParseError(f"{where}: bad rational {s!r} ({e})") from None
    return q.numerator, q.denominator


def written_rational_terms(s: str, where: str) -> tuple[int, int]:
    """``rational_terms``, then the refusal of a rational with a term of
    more digits than ``str`` may write, as the loader words it."""
    n, d = rational_terms(s, where)
    try:
        str(Fraction(n, d))
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise DocumentParseError(
            f"{where}: bad rational {s!r} (a term has more than {limit} digits)"
        ) from None
    return n, d


def value_to_json(v) -> dict:
    """The seed writer's JSON tree of the value ``v``."""
    if v.tag == "symbol":
        return {"symbol": v.body}
    if v.tag == "scalar":
        return {"scalar": str(v.body)}
    if v.tag == "vector":
        return {"vector": [str(q) for q in v.body]}
    return {"record": {k: value_to_json(inner) for k, inner in v.body}}
