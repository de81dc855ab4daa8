"""The CLI's table writer: float and int columns as CSV or JSON text.

:func:`_table_text` frames a table (CSV header and rows, or the JSON array of
objects) and picks its route per table.  A table with an int column, or
with fewer than ``_DIGIT_MIN_CELLS`` cells, is spelled by one ``%`` pass over
a row template.  A larger float table is cut into chunks of ``_CHUNK_ROWS``
rows; :func:`_chunk_text` writes a chunk's cells and constant pieces into a
``(rows, words)`` buffer of little-endian uint64 words, NUL-padded, and drops
the NULs with one ``bytes.translate``.  There :func:`_digit_words` spells
floats exactly as ``"%.12g" % x`` does, in numpy, and Python's ``%`` spells
every cell it cannot prove.  :func:`_table_text`'s docstring gives the
exactness argument.
"""

from __future__ import annotations

import functools
import itertools
import json
from typing import Sequence

import numpy as np

# Rows per chunk of a digit-pass table.  A digit pass has a fixed cost of
# about 120 us (some 60 numpy calls) and then costs about 55 ns per cell up
# to some 30 000 cells, where its temporaries leave the cache; 4096 rows of
# 3-5 columns stay below that.  A chunk's arrays take a few MB, so the
# memory of a large --steps table follows its text.
_CHUNK_ROWS = 4096
# Float tables with fewer cells than this skip the digit pass and are
# spelled by one % pass over a row template.  Measured in-process on the
# default probs, heat and fridge columns cut to 20-200 rows, the template
# wins up to 500-700 cells in CSV and the digit pass from 120-180 in JSON.
_DIGIT_MIN_CELLS = 256

# How json.dumps spells the floats that have no JSON number.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# Decimal exponents the layout tables cover: 5e-324 has E = -324, and a
# corrected E moves by one on either side of the double range.
_E_LOW, _E_HIGH = -330, 311
_U64 = (1 << 64) - 1


def _words(patterns: list[bytes]) -> np.ndarray:
    """Equal-length byte strings as columns of little-endian uint64 words."""
    return (np.frombuffer(b"".join(patterns), dtype="<u8")
            .reshape(len(patterns), -1).T.astype(np.uint64))


def _exponent_tables() -> tuple[np.ndarray, np.ndarray]:
    """Scale factors and layout words of each decimal exponent E in range.

    The scale takes a = |x| with floor(log10 a) = E to m = a * 10**(11 - E)
    as ((a * f1) * f2) / d1 / d2, each factor an exact power 10**0..10**22;
    at most two of them are not 1, so m is rounded at most twice.  f1 is
    NaN where |11 - E| > 44, which leaves the cell unproven.  The layout
    words are the byte shift of the leading zeros, the 128-bit masks (two
    words each) of the kept digit bytes [0, q), of the '.' at byte q and of
    the '0' fill, and the exponent text 'e+dd' from byte 1 of a word.  One
    column per E.
    """
    e = np.arange(_E_LOW, _E_HIGH)
    s = 11 - e
    p10 = np.array([10.0 ** k for k in range(23)])
    scale = np.stack([np.where(np.abs(s) <= 44, p10[np.clip(s, 0, 22)], np.nan),
                      *(p10[np.clip(v, 0, 22)] for v in (s - 22, -s, -s - 22))])
    expo = (e < -4) | (e >= 12)
    lead = np.where(expo | (e >= 0), 0, -e)  # 0.000ddd: zeros before the digits
    q = np.where(expo | (e < 0), 1, e + 1)   # the '.' goes before digit byte q
    fill = np.where(expo, 0, np.where(e >= 0, e + 1, lead))
    k = range(13)
    per_q = np.vstack([
        _words([b"\xff" * i + b"\0" * (16 - i) for i in k]),
        _words([(b"\0" * i + b".").ljust(16, b"\0") for i in k])])
    zeros = _words([(b"0" * i).ljust(16, b"\0") for i in k])
    exp = _words([(b"\0" + b"e%+03d" % v if x else b"").ljust(8, b"\0")
                  for v, x in zip(e.tolist(), expo.tolist())])
    return scale, np.vstack([(8 * lead).astype(np.uint64), per_q[:, q],
                             zeros[:, fill], exp])


def _group_words() -> tuple[np.ndarray, np.ndarray]:
    """ASCII of the 4-digit groups 0000..9999, one little-endian uint32 each.

    Entries 10000 + g hold g with its trailing zeros cut (0 for g = 0): the
    last nonzero group of a mantissa is looked up there.  The offsets pick
    that half for the group before a zero group.
    """
    g = np.arange(10000, dtype=np.uint32)
    word = np.full(10000, 0x30303030, dtype=np.uint32)
    for i, place in enumerate((1000, 100, 10, 1)):
        word += (g // place % 10) << (8 * i)
    cut = word.copy()
    zeros = np.ones(10000, dtype=bool)  # every digit after this one is '0'
    for i in (3, 2, 1, 0):
        zeros &= (cut >> (8 * i)) & 0xFF == 0x30
        cut[zeros] &= ~np.uint32(0xFF << (8 * i))
    return np.concatenate([word, cut]), np.where(g == 0, 10000, 0).astype(np.int16)


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The exponent and group tables, built by the first digit pass.

    A process that writes no table large enough for the pass (circuit-verify
    and mc tables are a few rows) never builds them: they keep 158 KB, and
    building them raises resident memory by about 0.8 MB and takes 1.5 ms.
    """
    return (*_exponent_tables(), *_group_words())


def _decimal_exponent(a: np.ndarray) -> np.ndarray:
    """floor(log10 a): one off for a within a few ulps of a power of ten."""
    return np.floor(np.log10(a))


def _scaled(a: np.ndarray, ie: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """m = a * 10**(11 - E), E at index ``ie`` of the exponent tables."""
    f1, f2, d1, d2 = (t[ie] for t in scale)
    m = a * f1
    m *= f2
    m /= d1
    m /= d2
    return m


def _digit_words(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """``%.12g`` of each float of the 1-d ``x`` as three little-endian words.

    Returns ``(lo, hi, tail, proven)``.  Where ``proven``, the bytes of lo,
    hi and tail, NULs dropped, are exactly ``"%.12g" % abs(x)``: lo and hi
    hold the leading zeros, digits and '.', tail a byte carried out of hi
    and the exponent text.  Zeros are proven ('0').  Cells that are not
    finite, or whose 12 digits the pass cannot prove, hold garbage.
    Temporaries are freed or reused as soon as they are spent: with a few
    arrays per cell alive at once, a chunk stays small.
    """
    scale, layout, groups, cut_next = _tables()
    a = np.abs(x)
    zero = a == 0.0
    proven = a > 0.0
    proven &= a < np.inf
    np.copyto(a, 1.0, where=~proven)
    ie = _decimal_exponent(a).astype(np.intp)
    ie -= _E_LOW
    with np.errstate(over="ignore", invalid="ignore"):
        m = _scaled(a, ie, scale)
        # E can be one off near a power of ten: move it and scale again.
        off = np.flatnonzero((m < 1e11) | (m >= 1e12))
        if off.size:
            ie[off] += np.where(m[off] < 1e11, -1, 1)
            m[off] = _scaled(a[off], ie[off], scale)
        del a
        n = np.rint(m)
        m -= n
        proven &= np.abs(m, out=m) < 0.499
    del m
    carry = n >= 1e12  # 999999999999.5 and up round to 10**12
    if carry.any():
        n[carry] = 1e11
        ie[carry] += 1
    np.copyto(n, 0.0, where=~proven)
    proven |= zero
    g2 = n.astype(np.int64)
    del n
    g0 = g2 // 100000000
    g2 -= g0 * 100000000
    g1 = g2 // 10000
    g2 -= g1 * 10000
    cut = cut_next[g2]
    hi = groups[g2 + 10000].astype(np.uint64)
    g2 = groups[g1 + cut].astype(np.uint64)
    g2 <<= np.uint64(32)
    cut &= cut_next[g1]
    g0 += cut
    lo = groups[g0].astype(np.uint64)
    lo |= g2
    del g0, g1, g2, cut
    shift, keep_lo, keep_hi, dot_lo, dot_hi, zeros_lo, zeros_hi, exp = layout
    shift = shift[ie]
    if shift.any():  # 128-bit shift of the digits past the leading zeros
        hi <<= shift
        hi |= (lo >> np.uint64(32)) >> (np.uint64(32) - shift)
        lo <<= shift
    del shift
    lo |= zeros_lo[ie]
    hi |= zeros_hi[ie]
    # Insert the '.' at byte q when a digit follows it.
    kept = lo & keep_lo[ie]
    rest_lo = lo ^ kept
    lo = kept
    kept = hi & keep_hi[ie]
    rest_hi = hi ^ kept
    hi = kept
    more = (rest_lo | rest_hi) != 0
    lo |= rest_lo << np.uint64(8)
    lo |= dot_lo[ie] * more
    hi |= rest_hi << np.uint64(8)
    hi |= rest_lo >> np.uint64(56)
    hi |= dot_hi[ie] * more
    rest_hi >>= np.uint64(56)
    rest_hi |= exp[ie]
    return lo, hi, rest_hi, proven


def _respelled(x: np.ndarray) -> np.ndarray:
    """JSON cells whose ``%.12g`` text is not the repr of its value."""
    with np.errstate(invalid="ignore"):
        a = np.abs(x)
        return ~np.isfinite(x) | (a < 1e-300) | (np.abs(x - np.rint(x)) <= 2e-11 * a)


def _text_words(texts: list[str]) -> np.ndarray:
    """ASCII texts of at most 22 bytes as ``(len(texts), 3)`` little-endian
    words, NUL-padded."""
    if not texts:
        return np.zeros((0, 3), dtype="<u8")
    return (np.array([t.encode() for t in texts], dtype="S24")
            .view("<u8").reshape(len(texts), 3))


@functools.lru_cache(maxsize=64)
def _layout(consts: tuple[bytes, ...]) -> tuple[np.ndarray, list[int], list[int]]:
    """Word template of one row: the constants, and cells of three words.

    ``consts[j]`` comes before cell j and ``consts[-1]`` after the last.  A
    cell's last word keeps bytes 6-7 for the next constant, so a cell holds
    22 bytes: no float text, ``%.12g`` or JSON, is longer than 19 (such as
    ``-2.22507385851e-308`` and ``-1234567890120000.0``).  The byte just
    before a cell's first word (byte 7) is free for its '-'.  Returns the
    read-only template and, per cell, its first word and the word of its
    sign byte.  A table's chunks, and tables of one shape, share a layout.
    """
    words: list[int] = []
    starts, signs = [], []
    for j, c in enumerate(consts[:-1]):
        if j:
            words[-1] |= int.from_bytes(c[:2], "little") << 48
            c = c[2:] if len(c) > 1 else None
        if c is not None:
            words += [int.from_bytes(c[i:i + 8], "little")
                      for i in range(0, len(c) + 1, 8)]
        signs.append(len(words) - 1)
        starts.append(len(words))
        words += [0, 0, 0]
    c = consts[-1]
    words[-1] |= int.from_bytes(c[:2], "little") << 48
    words += [int.from_bytes(c[i:i + 8], "little") for i in range(2, len(c), 8)]
    template = np.array(words, dtype=np.uint64)
    template.flags.writeable = False
    return template, starts, signs


def _json_text(text: str) -> str:
    """How ``json.dumps`` spells the float a ``%.12g`` text parses to."""
    v = repr(float(text))
    return _JSON_NONFINITE.get(v, v)


def _table_text(header: list[str], columns: Sequence[Sequence], fmt: str,
                extra_json_fields: dict | None = None) -> list[str]:
    """The table as CSV or ``indent=2`` JSON text, in pieces to be written in
    order: the header, one text per chunk and the tail.  A table the
    template spells, and an empty JSON table, is one piece.

    ``columns`` holds one sequence per header key, all of one length: float
    columns (float64 arrays) are written with 12 significant digits
    (``%.12g``), int columns (a column whose first cell is an int) whole
    (``%d``).  In JSON a float is the shortest repr of its 12-digit value,
    non-finite ones as ``NaN``/``Infinity``, and every object ends with
    ``extra_json_fields``.  ``%d`` and ``%.12g`` text holds no comma, quote
    or newline, so no cell needs CSV quoting.

    A table of floats only with at least ``_DIGIT_MIN_CELLS`` cells is written
    ``_CHUNK_ROWS`` rows at a time into a ``(rows, words)`` buffer of
    little-endian uint64 words that holds the constant pieces (CSV's ``,``
    and newline; JSON's object template with its keys and
    ``extra_json_fields``) and the cells, all padded with NUL bytes, which
    ``bytes.translate`` then drops; each chunk is decoded once.  Chunks keep
    the arrays of the pass small next to the text, whatever the grid size.

    *Digit pass.*  :func:`_digit_words` spells each float cell in numpy.
    With a = |x| and E = floor(log10 a), it computes m = a * 10**(11 - E)
    with at most two multiplications or divisions by the exact powers
    10**0..10**22, so m is rounded at most twice and, while m < 1e12,
    |m - m_exact| <= 2 * 2**-53 * 1e12 < 2.3e-4.  When m falls outside
    [1e11, 1e12), E moves by one and m is computed again.  A cell is proven
    when m lies more than 1e-3 from a half-integer, |m - rint(m)| < 0.499:
    m_exact is then on the same side of every half-integer, so N = rint(m)
    is m_exact rounded to 12 digits, the mantissa ``%.12g`` prints (10**12
    carries to 10**11 and E + 1).  N is split into three 4-digit groups,
    each looked up as 4 ASCII bytes; trailing zeros are cut, and the digits
    are laid out as ``%g`` does: e-notation (``e+dd``, three digits from
    |E| = 100) iff E < -4 or E >= 12, else positional, with a ``0.000``
    lead when E < 0.  The sign comes from ``signbit`` and zeros are ``0``
    or ``-0``.  Cells that are not finite or have |11 - E| > 44 are not
    proven; neither is about 0.2 % of uniform values.

    *Fallback.*  Every other cell is spelled by Python's ``%``: cells the
    digit pass did not prove, once per distinct bit pattern, and in JSON the
    cells the respelling below selects.  In JSON each such text is then
    spelled as the repr of the float it parses to, which, for a cell the
    respelling does not select, is its text already; the texts go into the
    buffer with one fancy index.  A table with an int column, or with fewer
    than ``_DIGIT_MIN_CELLS`` cells, skips the digit pass and the buffer:
    its rows are one ``%`` pass over a row template of the constant pieces
    (``%`` escaped as ``%%``) and the cells, ``%.12g`` or ``%d`` in CSV,
    and in JSON the repr text of each float cell's ``%.12g``.  The only int
    table, ``mc``'s, is one row, and a small table would not repay the
    buffer's fixed cost.

    *JSON respelling.*  A JSON float keeps its ``%.12g`` text, which already
    is that repr, except where a cell x is not finite, has ``|x| < 1e-300``
    (0, -0.0 and the subnormals, whose 12 digits do not round-trip) or has
    ``|x - rint(x)| <= 2e-11*|x|``; those are respelled as the repr of the
    float their text parses to.  For every other cell:

    * the text is a decimal of at most 12 significant digits, and one of at
      most 15 round-trips through a normal double, so the shortest repr of
      the parsed value has exactly those digits;
    * the value is not whole, so repr adds no ``.0``: rounding to 12 digits
      moves x by at most ``0.5e-11*|x|``, so a whole 12-digit value is
      selected with 4x slack;
    * both formats switch to e-notation below 1e-4 and spell the exponent
      alike.  Above 1e12 ``%g`` uses e-notation and repr does not (until
      1e16), but every ``|x| >= 5e10`` is within 0.5 of a whole number and
      is selected.
    """
    ints = [len(c) > 0 and isinstance(c[0], (int, np.integer)) for c in columns]
    cols = [c if is_int else np.asarray(c, dtype=float)
            for c, is_int in zip(columns, ints)]
    n = len(cols[0])
    json_cells = fmt == "json"
    if json_cells:
        if not n:
            return ["[]\n"]
        # Every object starts with the ",\n" that joins it to the one before;
        # the first one's is cut.
        head, cut, tail = "[\n", 2, "\n]\n"
        keys = [json.dumps(key) for key in header]
        consts = ([f",\n  {{\n    {keys[0]}: "]
                  + [f",\n    {key}: " for key in keys[1:]]
                  + ["".join(f",\n    {json.dumps(key)}: {json.dumps(v)}"
                             for key, v in (extra_json_fields or {}).items())
                     + "\n  }"])
    else:
        head, cut, tail = ",".join(header) + "\n", 0, ""
        consts = [""] + [","] * (len(header) - 1) + ["\n"]
    if any(ints) or n * len(cols) < _DIGIT_MIN_CELLS:
        return [head + _template_text(consts, cols, ints, json_cells)[cut:] + tail]
    consts = tuple(c.encode("ascii") for c in consts)
    pieces = [head]
    for start in range(0, n, _CHUNK_ROWS):
        pieces.append(_chunk_text(
            consts, [c[start:start + _CHUNK_ROWS] for c in cols], json_cells,
            0 if start else cut))
    pieces.append(tail)
    return pieces


def _template_text(consts: list[str], cols: list, ints: list[bool],
                   json_cells: bool) -> str:
    """The rows of a table with an int column or few cells, spelled by one
    ``%`` pass over a row template; ``consts[j]`` comes before cell j and
    ``consts[-1]`` after the last."""
    cells = [c if is_int else c.tolist() for c, is_int in zip(cols, ints)]
    if json_cells:
        cells = [c if is_int else [_json_text("%.12g" % v) for v in c]
                 for c, is_int in zip(cells, ints)]
    specs = ["%d" if is_int else "%s" if json_cells else "%.12g" for is_int in ints]
    row = "".join(c.replace("%", "%%") + s for c, s in zip(consts, specs + [""]))
    # A list first: tuple() of an iterator resizes, which piled tuples into
    # Python's free lists (0.8 MB over 18 000 small tables, Python 3.11).
    values = list(itertools.chain.from_iterable(zip(*cells)))
    return (row * len(cols[0])) % tuple(values)


def _chunk_text(consts: tuple[bytes, ...], cols: list, json_cells: bool,
                cut: int) -> str:
    """One chunk of rows of float columns, spelled into one word buffer and
    decoded once.

    The first ``cut`` bytes of the first row (at most 8) are dropped.
    """
    rows = len(cols[0])
    x = np.array(cols, dtype=float).reshape(-1)
    lo, hi, tail, spelled = _digit_words(x)
    if json_cells:
        spelled &= ~_respelled(x)
    # The cells the digit pass does not spell are spelled by %, each distinct
    # bit pattern once (0.0 and -0.0 differ), in JSON as the repr of their
    # 12-digit value: what the respelled cells need, and what every other
    # cell's text already is.
    fallback = np.flatnonzero(~spelled)
    bits, text_of = np.unique(x[fallback].view(np.uint64), return_inverse=True)
    texts = ["%.12g" % v for v in bits.view(float).tolist()]
    if json_cells:
        texts = [_json_text(t) for t in texts]
    template, starts, signs = _layout(consts)
    buf = np.empty((rows, len(template)), dtype="<u8")
    buf[...] = template
    for j, s in enumerate(starts):
        buf[:, s] = lo[j * rows:(j + 1) * rows]
        buf[:, s + 1] = hi[j * rows:(j + 1) * rows]
        buf[:, s + 2] |= tail[j * rows:(j + 1) * rows]
    del lo, hi, tail
    # The texts go to their cells with one fancy index.
    col, row = np.divmod(fallback, rows)
    at = (row * len(template) + np.array(starts)[col])[:, None] + np.arange(3)
    words = _text_words(texts)[text_of.reshape(-1)]
    buf.reshape(-1)[at] = template[at % len(template)] | words
    minus = (np.signbit(x) & spelled) * np.uint64(0x2D << 56)
    for j, s in enumerate(signs):
        buf[:, s] |= minus[j * rows:(j + 1) * rows]
    if cut:
        buf[0, 0] &= np.uint64(_U64 << (8 * cut) & _U64)
    data = buf.tobytes()
    del buf
    data = data.translate(None, b"\0")
    return data.decode("ascii")
