"""Reports as JSON text.

``_dumps`` writes a report value as ``json.dumps(value, indent=2,
sort_keys=True, default=str)`` would, byte for byte, without going through
``json``'s pure-Python indent encoder; a rational becomes its exact string
("-142/3").  A listing of forests (``_Listing``) is handed to it as the
search's edge masks over the edge names, and a matrix (``_Matrix``) as its
rows; both come out in blocks of rows, each rendered as it is written.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape
from typing import Iterator, NamedTuple, Sequence


def _dumps(value, indent: str = "\n") -> str | Iterator[str]:
    """``json.dumps(value, indent=2, sort_keys=True, default=str)``, byte
    for byte, for a report value: strings, and ``Fraction``s as their exact
    strings, go through the C escaper that call uses, ``True``, ``False``,
    ``None`` and exact ``int``s are written here as ``json`` writes them,
    lists, tuples and str-keyed dicts are joined here, and any other scalar
    is ``json.dumps(value)``, which raises TypeError on what ``json``
    cannot encode.  A ``_Listing`` is written as its rows of edge names and a
    ``_Matrix`` as its rows of entries; each, and a dict that holds one,
    comes out as an iterator of text blocks, so that it is written as it
    is rendered."""
    if isinstance(value, (str, Fraction)):
        return _escape(str(value))
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, _Listing):
        return _listing_blocks(value, indent)
    if isinstance(value, _Matrix):
        return _matrix_blocks(value.rows, indent)
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [(f"{_escape(key)}: ", _dumps(value[key], inner)) for key in sorted(value)]
        try:
            body = sep.join(map("".join, items))
        except TypeError:  # a value whose text comes in blocks
            return _dict_blocks(items, inner, indent)
        return f"{{{inner}{body}{indent}}}"
    if not value:
        return "[]"
    try:
        body = sep.join(map(_escape, value))
    except TypeError:  # an element that is not a string
        body = sep.join([_dumps(x, inner) for x in value])
    return f"[{inner}{body}{indent}]"


def _dict_blocks(items: list, inner: str, indent: str) -> Iterator[str]:
    """A dict's text from its (key text, value text) pairs: the text between
    two values that are iterators in one block, and their blocks passed on
    as they come."""
    head = ""
    for i, (key, text) in enumerate(items):
        head += f"{',' if i else '{'}{inner}{key}"
        if type(text) is str:
            head += text
        else:
            yield head
            yield from text
            head = ""
    yield head + indent + "}"


# a listing is rendered, and written, this many rows at a time, and a
# matrix in whole rows of about this many entries
LISTING_BLOCK = 4096


class _Listing(NamedTuple):
    """Forests as a report value: the search's edge masks, at least one,
    over the edge names (bit i is ``names[i]``)."""

    names: list[str]
    masks: list[int]


def _listing_blocks(listing: _Listing, indent: str) -> Iterator[str]:
    """The text of ``listing`` at ``indent``, LISTING_BLOCK rows at a time:
    a row joins the names of its mask's set bits, lowest first, each
    escaped once with the separator before it (the row's first comma is
    cut).  The bits are walked as ``forests._mask_bits`` walks them, inline,
    since a call per row costs a third of the row."""
    names, masks = listing
    inner = indent + "  "
    sep = "," + inner
    pieces = [f",{inner}  {_escape(name)}" for name in names]
    lead = "[" + inner
    for start in range(0, len(masks), LISTING_BLOCK):
        rows = []
        for x in masks[start : start + LISTING_BLOCK]:
            row = []
            while x:
                low = x & -x
                row.append(pieces[low.bit_length() - 1])
                x ^= low
            rows.append(f"[{''.join(row)[1:]}{inner}]")
        yield lead + sep.join(rows)
        lead = sep
    yield indent + "]"


class _Matrix(NamedTuple):
    """A square matrix as a report value: its rows, at least one, of
    entries written as their strings (exact rationals, or their text)."""

    rows: Sequence[Sequence]


def _matrix_blocks(rows: Sequence[Sequence], indent: str) -> Iterator[str]:
    """The text of a matrix's rows at ``indent``, as ``_dumps`` writes a
    list of lists of strings, in blocks of whole rows of about
    LISTING_BLOCK entries, each row escaped as it is rendered."""
    inner = indent + "  "
    sep = "," + inner
    entry = sep + "  "
    step = -(-LISTING_BLOCK // len(rows))
    lead = "[" + inner
    for start in range(0, len(rows), step):
        block = [f"[{inner}  {entry.join(map(_escape, map(str, row)))}{inner}]"
                 for row in rows[start : start + step]]
        yield lead + sep.join(block)
        lead = sep
    yield indent + "]"
