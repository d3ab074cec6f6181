"""Line-oriented text formats: SGI instance files, SLP files, raw tables.

All formats are UTF-8, whitespace-tokenized, with "#" starting a comment that
runs to end of line.  Canonical serialization uses single spaces and a
trailing newline on every line, so serialize(parse(serialize(x))) is
byte-identical to serialize(x).

SGI instance grammar::

    SGI 1
    ALPHABET <m>
    NAMES <m letter names>          # always emitted canonically
    TABLE <name> <n>                # one block per distinct table
    <n rows of n indices>
    END
    CONSTRAINT <tablename>          # in input order
    NAME <token>                    # optional constraint name
    IMAGES <m indices>
    ACCEPT <zero or more indices>
    END

Inside a CONSTRAINT block each of NAME, IMAGES and ACCEPT appears at most
once, in any order.

Letter names are distinct, non-empty, free of whitespace and ``#``, and do
not start with ``X`` (``Instance`` checks all of these), so each name reads
back as one token of the NAMES line and as one letter in a word and in an
SLP file.

Range checks belong to the value types (``Semigroup`` for table entries,
``Morphism`` for images, ``Constraint`` for accept sets); the parser adds the
line number to their errors and checks only counts and block structure.  A
TABLE block ends at its END line, so a block short of rows is reported at
its TABLE line, as ``parse_table_text`` reports a short table.  A
table's rows are converted in one pass into one integer array, which
``Semigroup`` checks with one ``min`` and one ``max``; rows are read one by
one only to report a ragged row or a non-integer token at its line.

A batch of reduced instances repeats a few tables many times, so
``parse_instance`` interns TABLE blocks that pass the row checks: a block
seen before returns the same validated ``Semigroup`` object, memos and all.
Only a block that parsed without error is kept, so every error is raised
afresh at its line.  The process-wide cache is a ``functools.lru_cache`` of
``INTERN_TABLES`` tables of at most 64 elements (2**16 cells in all), so
threads may share it; ``parse_table_text`` does not use it.
``serialize_instance`` memoises each table's row block on its object.

SLP grammar: a header line ``SLP 1``, a line ``START <var>``, then one line
``<var> = <sym> <sym> ...`` per variable.  Tokens starting with ``X`` are
variables; all other tokens are letter names (which therefore must not start
with ``X``).  Definition order is free.
"""

from __future__ import annotations

import functools
from itertools import chain, islice, takewhile

import numpy as np

from .circuits import OPS, BooleanCircuit
from .core import AssociativityError, Morphism, Semigroup, check_associative, memo_on_object
from .slp import Slp, is_var_ref, ref_target, validate_slp, var_ref
from .solve import Constraint, Instance


class FormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


def _logical_lines(text: str) -> list[tuple[int, list[str]]]:
    """(lineno, tokens) for each non-empty line after comment stripping."""
    return [(lineno, tokens) for lineno, raw in enumerate(text.splitlines(), start=1)
            if (tokens := raw.partition("#")[0].split())]


def _take(lines):
    """The next (lineno, tokens) from an iterator over logical lines."""
    for item in lines:
        return item
    raise FormatError("unexpected end of file")


def default_letter_names(m: int) -> tuple[str, ...]:
    return tuple(f"a{i}" for i in range(m))


class _Decimals(dict):
    """``int(token)``, looked up for "0" to "1023": a short token hashes faster than ``int`` parses it."""

    def __missing__(self, token: str) -> int:
        return int(token)


_int = _Decimals((str(i), i) for i in range(1024)).__getitem__


def _ints(tokens, what: str, lineno: int) -> list[int]:
    try:
        return list(map(_int, tokens))
    except ValueError:
        raise FormatError(f"non-integer {what} in {tokens!r}", lineno) from None


def _at_line(lineno: int, build, *args):
    """``build(*args)`` with its ValueError, except AssociativityError, as FormatError at lineno."""
    try:
        return build(*args)
    except AssociativityError:
        raise
    except ValueError as exc:
        raise FormatError(str(exc), lineno) from None


INTERN_TABLES = 16  # TABLE blocks parse_instance keeps


@functools.lru_cache(maxsize=INTERN_TABLES)
def _interned(tokens: str, n: int) -> Semigroup:
    """The validated semigroup whose n * n entries are ``tokens``, separated by spaces."""
    return check_associative(np.fromiter(map(_int, tokens.split()), np.int64, n * n).reshape(n, n))


def _read_table(rows, n: int, lineno: int, intern: bool = False) -> Semigroup:
    """The semigroup whose table is ``rows``, (lineno, tokens) pairs; a bad row is reported at its line.

    The block's tokens become an (n, n) array in one pass.  Only a ragged row
    or a token that is no int64 sends the rows through one by one, to report
    the first bad row, or to leave a huge int to Semigroup's range check.
    With ``intern``, a block of n rows of n tokens goes through ``_interned``
    if the kept tables stay within 2**16 cells (n <= 64); a block that fails
    there is read again below, to raise its error at its line.
    """
    if len(rows) != n:
        raise FormatError(f"expected {n} rows of {n} entries, got {len(rows)} rows", lineno)
    tokens = [t for _, t in rows]
    ragged = set(map(len, tokens)) != {n}
    if intern and not ragged and INTERN_TABLES * n * n <= 1 << 16:  # the tokens fix the table
        try:
            return _interned(" ".join(chain.from_iterable(tokens)), n)
        except (ValueError, OverflowError):
            pass
    try:
        table = np.fromiter(map(_int, chain.from_iterable(tokens)), np.int64, n * n).reshape(n, n)
    except (ValueError, OverflowError):  # no int, beyond int64, or too few tokens
        table = None
    if table is None or ragged:
        table = []
        for rlineno, row_tokens in rows:
            row = _ints(row_tokens, "table entry", rlineno)
            if len(row) != n:
                raise FormatError(f"row has {len(row)} entries, expected {n}", rlineno)
            table.append(row)
    return _at_line(lineno, check_associative, table)


# -- raw multiplication tables -------------------------------------------------

def parse_table_text(text: str) -> Semigroup:
    """Rows of indices; the first row fixes n.  A non-associative table raises AssociativityError."""
    lines = _logical_lines(text)
    if not lines:
        raise FormatError("empty table")
    return _read_table(lines, len(lines[0][1]), lines[0][0])


def serialize_table_text(S: Semigroup) -> str:
    return "".join(" ".join(str(v) for v in row) + "\n" for row in S.table)


_table_rows = memo_on_object(serialize_table_text)


# -- SGI instances --------------------------------------------------------------

def parse_instance(text: str) -> Instance:
    """Parse and fully validate an SGI document (associativity included)."""
    lines = _logical_lines(text)
    it = iter(lines)  # every block below reads on from where the last one stopped

    lineno, tokens = _take(it)
    if tokens != ["SGI", "1"]:
        raise FormatError("expected header 'SGI 1'", lineno)

    lineno, tokens = _take(it)
    if len(tokens) != 2 or tokens[0] != "ALPHABET":
        raise FormatError("expected 'ALPHABET <m>'", lineno)
    m = _ints(tokens[1:], "alphabet size", lineno)[0]
    if m < 1:
        raise FormatError("alphabet must be non-empty", lineno)

    names_line = None
    if len(lines) > 2 and lines[2][1][0] == "NAMES":
        names_line, tokens = _take(it)
        if len(tokens) != m + 1:
            raise FormatError(f"NAMES needs {m} tokens, got {len(tokens) - 1}", names_line)
        names = tuple(tokens[1:])

    tables: dict[str, Semigroup] = {}
    constraints: list[Constraint] = []
    for lineno, tokens in it:
        if tokens[0] == "TABLE":
            if len(tokens) != 3:
                raise FormatError("expected 'TABLE <name> <n>'", lineno)
            name = tokens[1]
            if name in tables:
                raise FormatError(f"duplicate table {name!r}", lineno)
            n = _ints(tokens[2:], "table size", lineno)[0]
            if n < 1:
                raise FormatError("table size must be >= 1", lineno)
            rows = list(islice(takewhile(lambda line: line[1] != ["END"], it), n))  # stops at END
            try:
                tables[name] = _read_table(rows, n, lineno, intern=True)
            except AssociativityError as exc:
                raise FormatError(f"table {name!r} is not associative: {exc}", lineno) from exc
            elineno, etokens = _take(it)
            if etokens != ["END"]:
                raise FormatError("expected 'END' closing the TABLE block", elineno)
        elif tokens[0] == "CONSTRAINT":
            if len(tokens) != 2:
                raise FormatError("expected 'CONSTRAINT <tablename>'", lineno)
            tname = tokens[1]
            if tname not in tables:
                raise FormatError(f"constraint references undeclared table {tname!r}", lineno)
            S = tables[tname]
            cname = None
            morphism = None
            accept = None
            seen: set[str] = set()
            for blineno, btokens in it:
                if btokens == ["END"]:
                    break
                if btokens[0] in seen:
                    raise FormatError(f"repeated {btokens[0]} in CONSTRAINT block", blineno)
                seen.add(btokens[0])
                if btokens[0] == "NAME":
                    if len(btokens) != 2:
                        raise FormatError("expected 'NAME <token>'", blineno)
                    cname = btokens[1]
                elif btokens[0] == "IMAGES":
                    images = _ints(btokens[1:], "image index", blineno)
                    if len(images) != m:
                        raise FormatError(f"IMAGES needs {m} indices, got {len(images)}", blineno)
                    morphism = _at_line(blineno, Morphism, images, S)
                elif btokens[0] == "ACCEPT":
                    accept = _ints(btokens[1:], "accept index", blineno)
                    accept_line = blineno
                else:
                    raise FormatError(f"unexpected token {btokens[0]!r} in CONSTRAINT block", blineno)
            else:
                raise FormatError("unexpected end of file")
            if morphism is None:
                raise FormatError("CONSTRAINT block lacks IMAGES", lineno)
            if accept is None:
                raise FormatError("CONSTRAINT block lacks ACCEPT", lineno)
            constraints.append(_at_line(accept_line, Constraint, morphism, accept, cname))
        else:
            raise FormatError(f"unexpected token {tokens[0]!r}", lineno)

    if not constraints:
        raise FormatError("instance declares no constraints")
    if names_line is None:  # built only now: each IMAGES line held m tokens, so the text bounds m
        names = default_letter_names(m)
    return _at_line(names_line, Instance, names, tuple(constraints))


def serialize_instance(instance: Instance) -> str:
    """Canonical form: tables deduplicated by content, constraints in order.

    Tables are named T0, T1, ... in order of first appearance.  Constraints
    mostly share Semigroup objects, so each is looked up by identity.  A
    table's row block is memoised on its object and is its dedup key: equal
    texts are equal tables, and a ``str`` caches its hash.
    """
    lines = ["SGI 1", f"ALPHABET {instance.alphabet_size}",
             "NAMES " + " ".join(instance.letter_names)]
    names: dict[int, str] = {}  # table name per Semigroup object
    by_table: dict[str, str] = {}  # equal tables share a name
    for c in instance.constraints:
        S = c.semigroup
        if id(S) not in names:
            rows = _table_rows(S)
            fresh = f"T{len(by_table)}"
            names[id(S)] = by_table.setdefault(rows, fresh)
            if names[id(S)] == fresh:
                lines.append(f"TABLE {fresh} {S.size}\n{rows}END")
    for c in instance.constraints:
        lines.append(f"CONSTRAINT {names[id(c.semigroup)]}")
        if c.name is not None:
            lines.append(f"NAME {c.name}")
        lines.append("IMAGES " + " ".join(map(str, c.morphism.images)))
        accept = " ".join(map(str, sorted(c.accept)))
        lines.append("ACCEPT" + (" " + accept if accept else ""))
        lines.append("END")
    return "".join(line + "\n" for line in lines)


# -- SLPs ------------------------------------------------------------------------

def parse_slp_text(text: str, letter_names=None) -> tuple[Slp, tuple[str, ...]]:
    """Parse an SLP file; returns the SLP and the letter names in index order.

    With ``letter_names`` given, letter tokens must come from that list; else
    letters are indexed in order of first appearance.
    """
    lines = _logical_lines(text)
    if not lines or lines[0][1] != ["SLP", "1"]:
        raise FormatError("expected header 'SLP 1'", lines[0][0] if lines else None)
    if len(lines) < 2 or len(lines[1][1]) != 2 or lines[1][1][0] != "START":
        raise FormatError("expected 'START <var>' after the header",
                          lines[1][0] if len(lines) > 1 else None)
    start_tok = lines[1][1][1]

    fixed = letter_names is not None
    letters: dict[str, int] = {name: i for i, name in enumerate(letter_names)} if fixed else {}
    var_ids: dict[str, int] = {}  # in definition order, which is id order
    bodies = []
    for lineno, tokens in lines[2:]:
        if len(tokens) < 3 or tokens[1] != "=":
            raise FormatError("expected '<var> = <sym> ...'", lineno)
        if not tokens[0].startswith("X"):
            raise FormatError(f"variable token {tokens[0]!r} must start with 'X'", lineno)
        if tokens[0] in var_ids:
            raise FormatError(f"variable {tokens[0]!r} defined twice", lineno)
        var_ids[tokens[0]] = len(var_ids)
        for tok in tokens[2:]:
            if not tok.startswith("X") and tok not in letters:
                if fixed:
                    raise FormatError(f"unknown letter {tok!r}", lineno)
                letters[tok] = len(letters)
        bodies.append((lineno, tokens[2:]))
    if start_tok not in var_ids:
        raise FormatError(f"start variable {start_tok!r} is never defined")

    def symbol(tok: str, lineno: int) -> int:
        if not tok.startswith("X"):
            return letters[tok]
        if tok not in var_ids:
            raise FormatError(f"variable {tok!r} is referenced but never defined", lineno)
        return var_ref(var_ids[tok])

    rhs = tuple(tuple(symbol(tok, lineno) for tok in body) for lineno, body in bodies)
    alphabet = len(letters) if not fixed else len(letter_names)
    if alphabet == 0:
        raise FormatError("SLP uses no letters and no alphabet was supplied")
    G = validate_slp(alphabet, rhs, var_ids[start_tok])
    names = tuple(letter_names) if fixed else tuple(letters)
    return G, names


def serialize_slp_text(G: Slp, letter_names=None) -> str:
    names = tuple(letter_names) if letter_names is not None else default_letter_names(G.alphabet_size)
    if len(names) != G.alphabet_size:
        raise ValueError(f"{len(names)} letter names for alphabet of size {G.alphabet_size}")
    lines = ["SLP 1", f"START X{G.start}"]
    for v, body in enumerate(G.rhs):
        syms = " ".join(f"X{ref_target(s)}" if is_var_ref(s) else names[s] for s in body)
        lines.append(f"X{v} = {syms}")
    return "".join(line + "\n" for line in lines)


# -- circuits (emit only) ---------------------------------------------------------

def serialize_circuit_text(C: BooleanCircuit) -> str:
    """Netlist dump: inputs are table bits then image bits, MSB first."""
    names = [f"in{i}" for i in range(C.input_count)] + ["const0"] + [f"g{g}" for g in range(C.size)]
    ins = [("!" if neg else "") + names[w] for w, neg in zip(C.src.tolist(), C.neg.tolist())]
    ptr = C.indptr.tolist()
    lines = [
        "CIRCUIT 1",
        f"N {C.n}",
        f"ALPHABET {C.alphabet_size}",
        f"BITS {C.bits}",
        f"TABLEBITS {C.table_bit_count}",
        f"IMAGEBITS {C.image_bit_count}",
    ]
    lines += [f"GATE g{g} {OPS[o]} {' '.join(ins[ptr[g]:ptr[g + 1]])}" for g, o in enumerate(C.op.tolist())]
    lines += [f"OUTPUT {names[w]}" for w in C.outputs]
    lines.append(f"SIZE {C.size}")
    lines.append(f"DEPTH {C.depth}")
    return "".join(line + "\n" for line in lines)
