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

``dumps`` returns the whole text; ``stream`` yields a document's text in
pieces, writing a member given as an iterator of lists one list at a time,
so a long array (the census classes, a mesh) is never held whole.  A value
given as :class:`Encoded` text is written as it is, so a caller that writes
one value many times encodes it once.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Any


def dumps(value: Any, indent: int) -> str:
    """Exactly the text of ``json.dumps(value, indent=indent)``.

    Raises TypeError for a float, a dict key that is not a str, or any
    type outside the ones the module docstring lists.
    """
    return _encode(value, "\n", " " * indent)


def stream(document: dict[str, Any], indent: int) -> Iterator[str]:
    """The text of ``json.dumps(document, indent=indent)``, in pieces.

    A member whose value is an iterator of lists is written as one array
    of all their items, one list at a time; an iterator that yields no
    items gives ``[]``.  Every other member is written as :func:`dumps`
    would write it.
    """
    step = " " * indent
    inner = "\n" + step
    close = inner + "]"
    opening = "{" + inner
    for key, value in document.items():
        head = f"{opening}{_quote(key)}: "
        opening = "," + inner
        if not isinstance(value, Iterator):
            yield head + _encode(value, inner, step)
            continue
        pending = head + "["
        for part in value:
            if part:
                # a part's text is "[" + its items + close: keep the items
                yield pending + _encode(part, inner, step)[1 : -len(close)]
                pending = ","
        yield close if pending == "," else pending + "]"
    yield "\n}" if opening == "," + inner else "{}"


class Encoded(str):
    """A value's JSON text, indented for the place where it is written:
    each line after the first starts with that place's indentation."""


_LITERALS = {True: "true", False: "false", None: "null"}

# keyed by exact type: a bool is an int, but prints as true or false
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: _LITERALS.__getitem__,
    type(None): _LITERALS.__getitem__,
    Encoded: str.__str__,
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
