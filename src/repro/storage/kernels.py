"""Record kernels: the scan reader, the wave splicer and the row encoder,
each compiled once per shape.

A table's run reader (:meth:`~repro.storage.degradable_store.TableStore.row_reader`)
does the same work for every record of a scan: find it through the page's slot
directory (an out-of-range or deleted slot raises as
:func:`~repro.storage.page.record_span` does), check the fixed prefix, drop
the row if a stored level is over its cap, hop over the fields nobody asked
for, decode the others, decrypt and generalize some of them, run the pushed
``column op number`` comparisons and test, decode what the survivors still
need.  What varies between scans is its **shape** (:class:`Shape`) — which
positions each phase decodes into which slots, which levels are capped, which
slots are decrypted or generalized, which comparisons and whether a test
follow, whether a row builder is given.  :func:`compile_kernel` writes that
shape out as straight-line Python — one unrolled skip or decode per field,
with the tag dispatch, checks and :class:`StorageError` messages of
:func:`~repro.storage.serialization.decode_value` (a skipped run of fields is
bound-checked once, at its end), the ``(stored level, value) → generalized``
memo, the key-store decrypt and each comparison inline — and compiles it
once.  A record stores every stable INT and FLOAT first; if they (each INT
in 4 bytes) and the head of a short TEXT after them match the table's wide
prefix, it takes them from the one unpack that checks its prefix, else it is
walked field by field.  A drained reader runs the same record body in its own
loop over page runs: a page whose floor is over a cap costs it one comparison.

A degradation wave (:meth:`~repro.storage.degradable_store.TableStore.degrade_many`)
splices records the same way: its **wave shape** (:class:`WaveShape`) is the
table's prefix and the ``(level position, value position)`` target of each
step a row takes, in order, and the strategy.  :func:`compile_wave_kernel`
writes one splicer per wave shape: check the prefix, compare each stored
level with its step's target (an irreversible step raises, a row already
there takes none), hop to each target field unrolled, look its chunk and its
``image → (new image, new value, row keys)`` memo up inline, and glue the
record back together with each level patched as its one byte — byte for
byte what encoding the degraded row would make.

An insert (:meth:`~repro.storage.degradable_store.TableStore.insert_many`)
encodes its rows the same way: its **row shape** (:class:`RowShape`) is the
table's column types and NULL rules, where each column's value comes from in
an input row (an INSERT's parameter, literal or nothing), and the strategy.
:func:`compile_row_kernel` writes one straight-line function per record that
handles each value once — the parameter type rule, the column's coercion and
its narrowest field, a value of the column's own type inline, any other
through the column's slow path — and joins the record prefix in the same call.

The source holds integers taken from the codec, the schema and the shape,
Python type names and the fixed strings of :data:`MESSAGES`, nothing else:
no table or column name, no parameter, no value.  Caps, demanded levels,
schemes, memos, the numbers compared with, the test, the builder, a wave's
targets and chunks and a statement's literals reach the compiled **factory**
as arguments each time a reader, splicer or encoder is made.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..core.errors import KeyDestroyedError, PolicyError, StorageError
from ..core.values import NULL, REMOVED, SUPPRESSED, check_parameter, compare
from .page import _DIRECTORY, _SLOT, lost_slot
from .serialization import (_FLOAT_FIELD, _FLOAT_STRUCT, _INT32_FIELD, _INT32_STRUCT, _INT_FIELD,
                            _LEN_STRUCT, _SHORT_HEAD, _TAG_BYTES, _TAG_FLOAT, _TAG_INT, _TAG_INT32,
                            _TAG_NULL, _TAG_SHORT_BYTES, _TAG_SHORT_TEXT, _TAG_SUPPRESSED, _TAG_TEXT,
                            _TEXT_HEAD, _WIDTHS, INT32_END, INT32_MIN, decode_value, encode_value,
                            record_prefix)

#: The message a wave kernel raises for a step below the stored level.
IRREVERSIBLE = "degradation is irreversible: cannot decrease the level"

#: Every string a kernel's code holds: the messages it raises (a slot the page
#: does not hold is "out of range" or "is deleted", :func:`~.page.lost_slot`).
MESSAGES = frozenset({IRREVERSIBLE, "out of range", "is deleted",
                      "trailing bytes after record payload", *(
    f"truncated record: {what}" for what in (
        "no type tag", "short length prefix", "short string payload", "short INT payload",
        "short FLOAT payload", "short payload"))})


class Shape(NamedTuple):
    """What a run reader's code depends on — integers and flags only."""

    #: How many levels the record prefix holds (:func:`~.serialization.record_prefix`).
    levels: int
    #: The field count every record of the table carries.
    fields: int
    #: Position of the record's last value.
    last: int
    #: Early phase, then late phase: ``(value position, slot)`` per decoded
    #: column, in record order.  The late phase runs for rows the test kept.
    phases: Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...]]
    #: Level position of each capped column, in the order of the caps.
    caps: Tuple[int, ...]
    #: ``(slot, level position, decrypt, generalize)`` per value to fix up
    #: after its phase, in slot order.
    fixes: Tuple[Tuple[int, int, bool, bool], ...]
    #: Whether a test follows the early phase.
    test: bool
    #: Whether a row builder ``make(head, row)`` replaces the plain tuple.
    make: bool
    #: ``(slot, operator)`` per pushed ``column op number`` comparison, run
    #: after the early fixes and before the test.
    compares: Tuple[Tuple[int, str], ...] = ()
    #: The payload width of each leading fixed-width value the wide prefix
    #: covers, and whether it also covers the tag and length of the TEXT after them.
    wide: Tuple[int, ...] = ()
    text: bool = False
    #: The pace: one page run, where each kept row sat — or a loop over runs.
    drained: bool = False


#: The most pages a drained reader decodes (not skips) in one call.
BATCH_PAGES = 64


#: A pushed comparison's operator → its Python spelling, and the name of its
#: fallback for a value that is not a number (``compare`` of that operator).
_COMPARE = {operator: (spelling, f"compare{index}") for index, (operator, spelling) in enumerate(
    (("=", "=="), ("!=", "!="), ("<", "<"), ("<=", "<="), (">", ">"), (">=", ">=")))}


_GLOBALS: Dict[str, Any] = {
    "StorageError": StorageError, "KeyDestroyedError": KeyDestroyedError,
    "PolicyError": PolicyError, "NULL": NULL, "SUPPRESSED": SUPPRESSED, "REMOVED": REMOVED,
    "decode_value": decode_value, "join": b"".join, "widths": _WIDTHS, "lost_slot": lost_slot,
    "unpack_int32": _INT32_STRUCT.unpack_from, "unpack_float": _FLOAT_STRUCT.unpack_from,
    "unpack_length": _LEN_STRUCT.unpack_from, "unpack_slot": _SLOT.unpack_from,
    "pack_int": _INT_FIELD.pack, "pack_int32": _INT32_FIELD.pack, "pack_float": _FLOAT_FIELD.pack,
    "length_head": _TEXT_HEAD.pack, "short_head": _SHORT_HEAD.pack, "encode_value": encode_value,
    "null_field": encode_value(NULL), "true_field": encode_value(True),
    "false_field": encode_value(False), "check_parameter": check_parameter,
    **{fallback: functools.partial(compare, operator)
       for operator, (_spelling, fallback) in _COMPARE.items()},
}


class _Source:
    """Lines of Python at an indentation depth."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0

    def __call__(self, *lines: str) -> None:
        self.lines.extend("    " * self.depth + line for line in lines)

    def block(self, head: str) -> "_Source":
        self(head)
        self.depth += 1
        return self

    def __enter__(self) -> "_Source":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.depth -= 1


def _raise(out: _Source, condition: str, message: str, error: str = "StorageError",
           args: str = "") -> None:
    assert message in MESSAGES
    with out.block(f"if {condition}:"):
        out(f"raise {error}({args}{message!r})")


def _span(out: _Source) -> None:
    """``start`` and ``end`` of the record in ``slot`` of the page ``data``,
    off its slot directory — :func:`~repro.storage.page.record_span` inline,
    with the same errors (``count``: the page's slot count)."""
    _raise(out, "not 0 <= slot < count", "out of range", "lost_slot", "slot, ")
    out(f"start, end = unpack_slot(data, {_DIRECTORY} + {_SLOT.size} * slot)")
    _raise(out, "not start", "is deleted", "lost_slot", "slot, ")
    out("end += start")


def _skip(out: _Source, cursor: str) -> None:
    """Hop over one field at ``cursor`` without decoding it: strings and
    bytes by their length prefix, fixed-width fields by their tag's width;
    the payload bound check waits for the end of the run of skipped fields."""
    _raise(out, f"{cursor} >= end", "truncated record: no type tag")
    out(f"tag = data[{cursor}]")
    with out.block(f"if tag == {_TAG_SHORT_TEXT} or tag == {_TAG_SHORT_BYTES}:"):
        _raise(out, f"{cursor} + {_SHORT_HEAD.size} > end", "truncated record: short length prefix")
        out(f"{cursor} += {_SHORT_HEAD.size} + data[{cursor} + 1]")
    with out.block(f"elif tag == {_TAG_TEXT} or tag == {_TAG_BYTES}:"):
        _raise(out, f"{cursor} + {1 + _LEN_STRUCT.size} > end",
               "truncated record: short length prefix")
        out(f"{cursor} += {1 + _LEN_STRUCT.size} + unpack_length(data, {cursor} + 1)[0]")
    with out.block(f"elif tag > {_TAG_SHORT_BYTES}:"):      # the highest tag
        out(f"decode_value(data, {cursor}, end)")      # raises: an unknown tag
    with out.block("else:"):
        out(f"{cursor} += widths[tag]")


def _decode(out: _Source, cursor: str, slot: int) -> None:
    """Decode the field at ``cursor`` into ``v<slot>``: an INT or TEXT in its
    narrow form, FLOAT, NULL and SUPPRESSED inline, the rest through ``decode_value``."""
    value = f"v{slot}"
    _raise(out, f"{cursor} >= end", "truncated record: no type tag")
    out(f"tag = data[{cursor}]")
    with out.block(f"if tag == {_TAG_SHORT_TEXT}:"):
        out(f"first = {cursor} + {_SHORT_HEAD.size}")
        _raise(out, "first > end", "truncated record: short length prefix")
        out(f"{cursor} = first + data[{cursor} + 1]")
        _raise(out, f"{cursor} > end", "truncated record: short string payload")
        out(f"{value} = data[first:{cursor}].decode()")
    for tag, kind, size, unpack in ((_TAG_INT32, "INT", _INT32_STRUCT.size, "int32"),
                                    (_TAG_FLOAT, "FLOAT", _FLOAT_STRUCT.size, "float")):
        with out.block(f"elif tag == {tag}:"):
            out(f"{cursor} += {1 + size}")
            _raise(out, f"{cursor} > end", f"truncated record: short {kind} payload")
            out(f"{value} = unpack_{unpack}(data, {cursor} - {size})[0]")
    for tag, sentinel in ((_TAG_NULL, "NULL"), (_TAG_SUPPRESSED, "SUPPRESSED")):
        with out.block(f"elif tag == {tag}:"):
            out(f"{cursor} += 1", f"{value} = {sentinel}")
    with out.block("else:"):
        out(f"{value}, {cursor} = decode_value(data, {cursor}, end)")


def _walk(out: _Source, start: int, stop: int, decoded: Dict[int, int],
          saves: frozenset, last: int, wide: Optional[Shape] = None) -> None:
    """Positions ``start`` up to ``stop`` from ``offset``: decode those of
    ``decoded`` (position → slot), skip the others in runs checked at their
    end, keep the offset of each of ``saves`` in ``o<position>``, and if
    ``stop`` is the record's ``last`` position check that nothing trails it.
    Under a matched ``wide`` prefix the positions it covers are not walked:
    a fixed-width value is read off ``head``, the TEXT after them is sized by
    the length ``head`` holds."""
    run = False
    covered = -1 if wide is None else len(wide.wide)
    prefix = None if wide is None else record_prefix(wide.levels)
    for position in range(start, stop + 1):
        if position < covered:
            if position in decoded:
                out(f"v{decoded[position]} = head[{prefix.value_at(position)}]")
            continue
        if position == covered:
            out(f"offset = start + {prefix.value_offset(wide.wide)}")
            if wide.text:
                if position in saves:
                    out(f"o{position} = offset")
                length = f"head[{prefix.value_at(position)}]"
                if position in decoded:
                    out(f"first = offset + {_SHORT_HEAD.size}", f"offset = first + {length}")
                    _raise(out, "offset > end", "truncated record: short string payload")
                    out(f"v{decoded[position]} = data[first:offset].decode()")
                else:
                    out(f"offset += {_SHORT_HEAD.size} + {length}")
                    run = True
                continue
        if position in saves:
            out(f"o{position} = offset")
        if position in decoded:
            if run:
                _raise(out, "offset > end", "truncated record: short payload")
                run = False
            _decode(out, "offset", decoded[position])
        else:
            _skip(out, "offset")
            run = True
    if stop == last:
        if stop < covered:
            out(f"offset = start + {prefix.value_offset(wide.wide)}")
        _raise(out, "offset != end", "trailing bytes after record payload")


def _fix(out: _Source, index: int, slot: int, level: int,
         decrypt: bool, generalize: bool) -> None:
    """Decrypt a ciphertext (a destroyed key reads ``SUPPRESSED``), then
    generalize a value stored more accurately than demanded, once per
    distinct ``(stored level, value)``; ``level``: where ``head`` holds its level."""
    value, memo = f"v{slot}", f"memo{index}"
    out(f"level = head[{level}]")
    if decrypt:
        with out.block(f"if isinstance({value}, bytes):"):
            with out.block("try:"):
                out(f"{value} = decode_value(decrypt{index}"
                    f"((table{index}, key, column{index}, level), {value}), 0)[0]")
            with out.block("except KeyDestroyedError:"):
                out(f"{value} = SUPPRESSED")
    if generalize:
        present = " and ".join(f"{value} is not {sentinel}"
                               for sentinel in ("NULL", "SUPPRESSED", "REMOVED", "None"))
        with out.block(f"if level < demand{index} and {present}:"):
            out(f"coarse = {memo}.get((level, {value}), {memo})")
            with out.block(f"if coarse is {memo}:"):
                out(f"coarse = {memo}[level, {value}] = "
                    f"generalize{index}({value}, demand{index}, level)")
            out(f"{value} = coarse")


def _row(slots: List[int], decoded: Any) -> str:
    """A row tuple: the key, then each slot's value if ``decoded`` has it."""
    return "(key, " + "".join(f"v{slot}, " if slot in decoded else "None, "
                              for slot in slots) + ")"


def kernel_source(shape: Shape) -> str:
    """The factory's Python source for ``shape``."""
    early, late = (dict(phase) for phase in shape.phases)
    slots = sorted((*early.values(), *late.values()))
    reach = max(early, default=-1)
    #: late positions the early walk passes: decoded later from a kept offset
    kept = frozenset(position for position in late if position < reach)
    prefix = record_prefix(shape.levels)
    out = _Source()

    def fixes(phase: Dict[int, int]) -> None:
        for index, (slot, level_at, *fix) in enumerate(shape.fixes):
            if slot in phase.values():
                _fix(out, index, slot, prefix.level_at(level_at), *fix)

    def record(wide: Optional[Shape]) -> None:
        """One record from its prefix ``head`` on: under the matched
        ``wide`` prefix, or walked from the narrow one."""
        if shape.caps:
            over = " or ".join(f"head[{prefix.level_at(level_at)}] > cap{at}"
                               for at, level_at in enumerate(shape.caps))
            with out.block(f"if {over}:"):
                out("excluded += 1", "continue")
        out(f"key = head[{prefix.key_at}]")
        _walk(out, 0, reach, early, kept, shape.last, wide)
        fixes(early)
        for index, (slot, operator) in enumerate(shape.compares):
            spelling, fallback = _COMPARE[operator]
            out(f"kind = type(v{slot})")
            with out.block("if kind is int or kind is float:"):
                with out.block(f"if not float(v{slot}) {spelling} number{index}:"):
                    out("continue")
            with out.block(f"elif not {fallback}(v{slot}, constant{index}):"):
                out("continue")
        if shape.test:
            out(f"row = {_row(slots, early.values())}")
            with out.block("if not test(row):"):
                out("continue")
        for position in sorted(kept):
            if wide is not None and position < len(wide.wide):
                out(f"v{late[position]} = head[{prefix.value_at(position)}]")
            else:
                _decode(out, f"o{position}", late[position])
        if late and max(late) > reach:
            _walk(out, reach + 1, max(late), late, frozenset(), shape.last, wide)
        fixes(late)
        if late or not shape.test:
            out(f"row = {_row(slots, slots)}")

    def narrow() -> None:
        """The field-by-field walk: the narrow prefix checked, then each field."""
        out(f"offset = start + {prefix.size}")
        with out.block("if offset > end:"):
            out("raise malformed(data, start, end)")
        out("head = unpack(data, start)")
        with out.block(f"if head[0] != {shape.fields} or head[{prefix.tags_at}::2] != tags:"):
            out("raise malformed(data, start, end)")
        record(None)

    def records(head: str) -> None:
        """The record body for each slot of the page ``data``, then the row kept."""
        with out.block(head):
            _span(out)
            if (shape.wide or shape.text) and (early or late):
                size = prefix.value_offset(shape.wide) + shape.text * _SHORT_HEAD.size
                out(f"head = wide(data, start) if start + {size} <= end else None")
                with out.block(f"if head is not None and head[0] == {shape.fields} "
                               f"and head[{prefix.tags_at}::2] == wide_tags:"):
                    record(shape)
                with out.block("else:"):
                    narrow()
            else:
                narrow()
            if not shape.drained:
                out("drop(excluded)", "place(position)")
            out("keep(make(head, row))" if shape.make else "keep(row)")

    with out.block("def factory(unpack, tags, wide, wide_tags, malformed, caps, fixes, "
                   "constants, test, make):"):
        if shape.caps:
            out("".join(f"cap{at}, " for at in range(len(shape.caps))) + "= caps")
        for index in range(len(shape.fixes)):
            out(f"demand{index}, generalize{index}, memo{index}, decrypt{index}, "
                f"table{index}, column{index} = fixes[{index}]")
        for index in range(len(shape.compares)):
            out(f"constant{index} = constants[{index}]",
                f"number{index} = float(constant{index})")
        if not shape.drained:
            with out.block("def read(data, slots):"):
                out("rows, positions, drops = [], [], []",
                    "keep, place, drop = rows.append, positions.append, drops.append",
                    "excluded = 0", "count = unpack_slot(data, 0)[0]")
                records("for position, slot in enumerate(slots):")
                out("return rows, positions, drops, excluded")
        else:
            with out.block("def read(runs, floors, frame, armed):"):
                out("rows, run_first = [], None", "keep = rows.append",
                    "decoded = unread = excluded = skipped = pages = 0")
                with out.block("for page, slots, run_first in runs:"):
                    if shape.caps:
                        over = " or ".join(f"floor[{level_at}] > cap{at}"
                                           for at, level_at in enumerate(shape.caps))
                        out("floor = floors[page]")
                        with out.block(f"if {over}:"):
                            out("unread += len(slots)", "skipped += 1",
                                "if armed is not None: armed(page)", "continue")
                    out("data = frame(page)", "count = unpack_slot(data, 0)[0]",
                        "decoded += len(slots)")
                    records("for slot in slots:")
                    out("pages += 1", f"if pages == {BATCH_PAGES}: break")
                out("return rows, None if run_first is None else run_first + len(slots), decoded, "
                    "unread, excluded, skipped")
        out("read.caps = [" + "".join(f"({level_at}, cap{at}), " for at, level_at
                                      in enumerate(shape.caps)) + "]")
        out("return read")
    return "\n".join(out.lines) + "\n"


def compile_kernel(shape: Shape) -> Callable[..., Any]:
    """Compile ``shape``'s kernel; returns its factory ``factory(unpack,
    tags, wide, wide_tags, malformed, caps, fixes, constants, test, make)``
    → run reader ``read(page buffer, slots)``, where ``wide`` and ``wide_tags``
    are the wide prefix's, ``caps`` holds the cap of each level of ``shape.caps``,
    ``fixes`` per fix ``(demanded level, generalize, memo, decrypt, table, column)`` and
    ``constants`` the number of each of ``shape.compares``.  A drained reader is
    ``read(page runs, floors, frame, armed)``: it takes runs until it has decoded
    :data:`BATCH_PAGES` pages (``armed(page)`` hears of each it skips) → ``(rows,
    index after the last run or None, decoded, unread, excluded, pages skipped)``.
    The reader's ``.caps`` are its ``(level position, cap)`` pairs."""
    return _compile(kernel_source(shape), "<scan kernel>")


class WaveShape(NamedTuple):
    """What a wave splicer's code depends on — integers and flags only."""

    #: How many levels the record prefix holds (:func:`~.serialization.record_prefix`).
    levels: int
    #: The field count every record of the table carries.
    fields: int
    #: ``(level position, value position)`` of each step a row takes, in order.
    targets: Tuple[Tuple[int, int], ...]
    #: Whether the values are ciphertexts (the crypto strategy).
    crypto: bool


def wave_kernel_source(shape: WaveShape) -> str:
    """The splicer factory's Python source for ``shape``."""
    out = _Source()
    prefix = record_prefix(shape.levels)
    steps = range(len(shape.targets))
    positions = sorted({level_at for level_at, _value_at in shape.targets})
    #: value position → the steps that go through its field, in order
    fields: Dict[int, List[int]] = {}
    for step, (_level_at, value_at) in enumerate(shape.targets):
        fields.setdefault(value_at, []).append(step)
    with out.block("def factory(unpack, tags, malformed, pieces, steps, generalize, rekey):"):
        for step in steps:
            out(f"to{step}, lane{step}, open{step} = steps[{step}]")
        with out.block("def splice(data, slots):"):
            # One copy of the page: every slice below is then a hashable field.
            out("data = bytes(data)", "out = []", "put = out.append",
                "count = unpack_slot(data, 0)[0]")
            with out.block("for slot in slots:"):
                _span(out)
                out(f"offset = start + {prefix.size}")
                with out.block("if offset > end:"):
                    out("raise malformed(data, start, end)")
                out("head = unpack(data, start)")
                with out.block(f"if head[0] != {shape.fields} or "
                               f"head[{prefix.tags_at}::2] != tags:"):
                    out("raise malformed(data, start, end)")
                for level_at in positions:
                    out(f"a{level_at} = head[{prefix.level_at(level_at)}]")
                for step, (level_at, _value_at) in enumerate(shape.targets):
                    level = f"a{level_at}"
                    out(f"c{step} = None")
                    with out.block(f"if to{step} != {level}:"):
                        _raise(out, f"to{step} < {level}", IRREVERSIBLE, "PolicyError")
                        out(f"c{step} = lane{step}.get({level})")
                        with out.block(f"if c{step} is None:"):
                            out(f"c{step} = open{step}({level})")
                        out(f"{level} = to{step}")
                with out.block("if " + " and ".join(f"c{step} is None" for step in steps) + ":"):
                    out("put(None)", "continue")
                out(f"key = head[{prefix.key_at}]")
                passed = 0
                for value_at in sorted(fields):
                    for _gap in range(value_at - passed):
                        _skip(out, "offset")
                    _raise(out, "offset > end", "truncated record: short payload")
                    out(f"f{value_at} = offset")
                    _skip(out, "offset")
                    _raise(out, "offset > end", "truncated record: short payload")
                    out(f"g{value_at} = offset", f"v{value_at} = data[f{value_at}:offset]")
                    for step in fields[value_at]:
                        with out.block(f"if c{step} is not None:"):
                            if shape.crypto:
                                out(f"v{value_at} = rekey(c{step}, key, v{value_at})")
                                continue
                            out(f"hit = c{step}[0].get(v{value_at})")
                            with out.block("if hit is None:"):
                                out(f"hit = generalize(c{step}, v{value_at})")
                            out("hit[2].append(key)", f"v{value_at} = hit[0]")
                    passed = value_at + 1
                # The levels' bytes are adjacent: no empty slice between two.
                pieces, cursor, at = [], "start", 0
                for level_at in positions:
                    if prefix.level_offsets[level_at] != at:
                        at = prefix.level_offsets[level_at]
                        pieces.append(f"data[{cursor}:start + {at}]")
                    pieces.append(f"pieces[a{level_at}]")
                    at += 1
                    cursor = f"start + {at}"
                for value_at in sorted(fields):
                    pieces += (f"data[{cursor}:f{value_at}]", f"v{value_at}")
                    cursor = f"g{value_at}"
                pieces.append(f"data[{cursor}:end]")
                out("put(join((" + ", ".join(pieces) + ")))")
            out("return out")
        out("return splice")
    return "\n".join(out.lines) + "\n"


def compile_wave_kernel(shape: WaveShape) -> Callable[..., Any]:
    """Compile ``shape``'s splicer; returns its factory ``factory(unpack,
    tags, malformed, pieces, steps, generalize, rekey)`` → ``splice(page buffer,
    slots)``, which returns per record its new image, or ``None`` when the
    row already is at every target.  ``pieces[level]`` is a level's byte; ``steps`` holds per step ``(to level, lane, open)``: the lane maps
    a from level to its chunk's ``(memo, chunk)`` and ``open(from level)``
    makes that entry on a miss.  A memo miss calls ``generalize(entry,
    image)`` → ``(new image, new value, row keys)``; under crypto every
    field goes through ``rekey(entry, row key, image)`` → new image."""
    return _compile(wave_kernel_source(shape), "<wave kernel>")


class RowShape(NamedTuple):
    """What a row encoder's code depends on — integers, flags and type names only."""

    #: Per column: its coerced values' Python type, whether NULL is stored inline.
    columns: Tuple[Tuple[str, bool], ...]
    #: Per record of an input row, per column: the input value's index, -1
    #: none (NULL), ``-2 - k`` literal ``k``.
    sources: Tuple[Tuple[int, ...], ...]
    #: How many values an input row holds.
    width: int
    #: ``"param"`` (parameters: the parameter type rule, then coercion),
    #: ``"row"`` (coercion) or ``"image"`` (stored values, encoded as they are).
    mode: str
    #: ``(value position, level position)`` of each encrypted field (crypto).
    sealed: Tuple[Tuple[int, int], ...]


#: A coerced value's (or a ciphertext's) type → the fast-path field it encodes
#: to, in its narrowest form, of ``{v}`` (of its bytes ``b``, a string's).
_FIELDS = {"int": f"pack_int32({_TAG_INT32}, {{v}}) if {INT32_MIN} <= {{v}} < {INT32_END} "
                  f"else pack_int({_TAG_INT}, {{v}})", "float": f"pack_float({_TAG_FLOAT}, {{v}})",
           "bool": "true_field if {v} else false_field", **{
               kind: f"(short_head({short}, n) if (n := len(b)) < 256 else length_head({tag}, n)) + b"
               for kind, short, tag in (("str", _TAG_SHORT_TEXT, _TAG_TEXT),
                                        ("bytes", _TAG_SHORT_BYTES, _TAG_BYTES))}}


def row_kernel_source(shape: RowShape) -> str:
    """The row encoder factory's Python source for ``shape``."""
    out = _Source()
    with out.block("def factory(literals, sized, slow, encrypt, table, names):"):
        out("".join(f"slow{index}, " for index in range(len(shape.columns))) + "= slow")
        with out.block("def encode(key, rows, lead, stamp, levels, put, keep):"):
            with out.block("for row in rows:"):
                out("kind = type(row)")
                with out.block("if kind is not tuple and kind is not list "
                               f"or len(row) != {shape.width}:"):
                    out("row = sized(row)")
                if shape.width:
                    out("".join(f"p{index}, " for index in range(shape.width)) + "= row")
                for sources in shape.sources:
                    _encode_row(out, shape, sources)
            out("return key")
        out("return encode")
    return "\n".join(out.lines) + "\n"


def _encode_row(out: _Source, shape: RowShape, sources: Tuple[int, ...]) -> None:
    """One record: each column's value checked, coerced and encoded once."""
    for index, ((exact, null), source) in enumerate(zip(shape.columns, sources)):
        value, field = f"v{index}", f"f{index}"
        out(f"{value} = " + (f"p{source}" if source >= 0 else "None" if source == -1
                             else f"literals[{-2 - source}]"))
        with out.block(f"if type({value}) is {exact}:"):
            if exact == "str":
                out(f"b = {value}.encode()")
            out(f"{field} = " + _FIELDS[exact].format(v=value))
        if shape.mode == "image":
            with out.block("else:"):
                out(f"{field} = encode_value({value})")
            continue
        if null:
            with out.block(f"elif {value} is None:"):
                out(f"{value} = NULL", f"{field} = null_field")
        with out.block("else:"):
            checked = f"check_parameter({value})" if shape.mode == "param" and source >= 0 \
                else value
            out(f"{value}, {field} = slow{index}({checked})")
    for value_at, level_at in shape.sealed:
        value = f"v{value_at}"
        present = " and ".join(f"{value} is not {sentinel}"
                               for sentinel in ("NULL", "SUPPRESSED", "REMOVED", "None"))
        with out.block(f"if {present}:"):
            out(f"b = encrypt((table, key, names[{value_at}], levels[{level_at}]), f{value_at})",
                f"f{value_at} = " + _FIELDS["bytes"])
    fields = "".join(f"f{index}, " for index in range(len(shape.columns)))
    out(f"put(join((lead, pack_int({_TAG_INT}, key), stamp, {fields})))")
    if shape.mode != "image":
        out("keep((" + "".join(f"v{index}, " for index in range(len(shape.columns))) + "))")
    out("key += 1")


def compile_row_kernel(shape: RowShape) -> Callable[..., Any]:
    """Compile ``shape``'s row encoder; returns its factory ``factory(literals,
    sized, slow, encrypt, table, names)`` → ``encode(key, rows, lead, stamp,
    levels, put, keep)``: each input row (through ``sized(row)`` unless a
    tuple or list of ``shape.width`` values) makes the records of
    ``shape.sources``, keyed from ``key`` on, each ``put`` as
    :func:`~repro.storage.serialization.encode_stored` would make it
    (``lead``: the field count and ``levels`` packed, ``stamp``: the
    insertion time's field) and its coerced values ``keep``-ed; returns the
    next key.  ``slow[column](value)`` → ``(coerced value, field)`` off the fast
    path; a sealed field is ``encrypt((table, key, names[position], level), field)``."""
    return _compile(row_kernel_source(shape), "<row kernel>")


@functools.lru_cache(maxsize=256)
def _compile(source: str, name: str) -> Callable[..., Any]:
    """The factory of ``source``: it holds code only, so every store of every
    engine with that shape shares one (the 256 latest shapes stay compiled)."""
    namespace = dict(_GLOBALS)
    exec(compile(source, name, "exec"), namespace)
    factory: Callable[..., Any] = namespace["factory"]
    return factory


__all__ = ["Shape", "WaveShape", "RowShape", "MESSAGES", "BATCH_PAGES", "kernel_source",
           "compile_kernel", "wave_kernel_source", "compile_wave_kernel", "row_kernel_source",
           "compile_row_kernel"]
