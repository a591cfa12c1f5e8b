"""JSON text for the command line, byte for byte what ``json.dumps`` writes
with an indent, at close to the speed of its compact C encoder.

CPython's ``json`` module encodes with its C encoder only when no indent
is set; with one, every token goes through the pure-Python encoder.  The
documents this package writes hold only dicts with str keys, lists,
tuples, ints, bools, None and strings, so this writer handles exactly
those.  Strings go through the C quoting function that ``json`` uses for
``ensure_ascii``.  An array whose items all have one scalar type (all
ints, say) is joined in one call, and so is each row of an array of int
arrays, such as a mesh or a lattice basis.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Any


def dumps(value: Any, indent: int, level: int = 0) -> str:
    """``json.dumps(value, indent=indent)``, as if nested ``level`` deep.

    At ``level`` 0 the result is exactly the text of ``json.dumps``; at a
    deeper level every line after the first is indented by ``level``
    further steps, so the text can be spliced into an enclosing document
    at that depth.  Raises TypeError for a float, a dict key that is not
    a str, or any type outside the ones the module docstring lists.
    """
    return _encode(value, "\n" + " " * (indent * level), " " * indent)


_LITERALS = {True: "true", False: "false", None: "null"}

# keyed by exact type: a bool is an int, but prints as true or false
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: _LITERALS.__getitem__,
    type(None): _LITERALS.__getitem__,
}
_ARRAYS = (list, tuple)
_INT = {int}


def _encode(value: Any, newline: str, step: str) -> str:
    # newline is "\n" followed by the indentation of the value's own line
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    if isinstance(value, _ARRAYS):
        if not value:
            return "[]"
        inner = newline + step
        kinds = {*map(type, value)}
        kind = kinds.pop() if len(kinds) == 1 else None
        if (scalar := _SCALARS.get(kind)) is not None:
            items = map(scalar, value)
        elif kind in _ARRAYS and {*map(type, chain.from_iterable(value))} == _INT:
            deeper = inner + step
            comma = "," + deeper
            items = [
                f"[{deeper}{comma.join(map(int.__repr__, row))}{inner}]" if row else "[]"
                for row in value
            ]
        else:
            items = [_encode(item, inner, step) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + step
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            scalar = _SCALARS.get(type(item))
            text = scalar(item) if scalar is not None else _encode(item, inner, step)
            items.append(_quote(key) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
