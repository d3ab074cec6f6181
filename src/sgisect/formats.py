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

A document without ``#`` has its raw lines from the first CONSTRAINT line
to the end read as whole columns if they are all blocks as
``serialize_instance`` writes them, NAME in every block or in none: the
IMAGES lines are split once into one array, range-checked at once, and
each distinct ACCEPT line is read once, equal lines sharing one set.  The
line reader reads any other text, and a section with any fault in it,
line by line, building a ``Morphism`` or ``Constraint`` per line to report
the first fault in the document at its line.

Range errors take their messages from the value types (``Semigroup`` for
table entries, ``Morphism`` for images, ``Constraint`` for accept sets).
A TABLE block ends at its END line, so a block short of rows is reported at
its TABLE line, as ``parse_table_text`` reports a short table.  A table's
rows become one integer array in one pass, which ``Semigroup`` checks with one
``min`` and one ``max`` and keeps as its table; rows are read one by one only
to report a ragged row or a non-integer token at its line.

A batch of reduced instances repeats a few tables many times, so
``parse_instance`` interns TABLE blocks by their row text: a block seen
before returns the same validated ``Semigroup`` object, memos and all.
``parse_instance`` reads logical lines lazily, and when the n raw lines
after a TABLE line are followed by END, it looks those lines up as they
stand, before splitting them into tokens.  Any other block (one with a
blank or comment line among its rows, or one that fails the lookup) is
read token by token and parsed afresh, so every error is raised at its
line.  The cache keeps a block only once its text has n rows of n tokens
and a valid table.  The process-wide cache is a ``functools.lru_cache`` of
``INTERN_TABLES`` tables of at most 64 elements (2**16 cells in all), so
threads may share it; ``parse_table_text`` does not use it.
``serialize_instance`` memoises each table's row block on its object and
writes a CONSTRAINT block as one string.

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


def _internable(n: int) -> bool:
    """Whether n-element tables go through ``_interned``: the kept tables stay within 2**16 cells (n <= 64)."""
    return INTERN_TABLES * n * n <= 1 << 16


@functools.lru_cache(maxsize=INTERN_TABLES)
def _interned(rows: str, n: int) -> Semigroup:
    """The validated semigroup whose rows are the lines of ``rows``, each of n tokens."""
    tokens = [line.split() for line in rows.split("\n")]
    if len(tokens) != n or any(len(row) != n for row in tokens):
        raise ValueError(f"expected {n} rows of {n} entries")
    return check_associative(np.fromiter(map(_int, chain.from_iterable(tokens)), np.int64, n * n).reshape(n, n))


def _read_table(rows, n: int, lineno: int) -> Semigroup:
    """The semigroup whose table is ``rows``, (lineno, tokens) pairs; a bad row is reported at its line.

    The block's tokens become an (n, n) array in one pass.  Only a ragged row
    or a token that is no int64 sends the rows through one by one, to report
    the first bad row, or to leave a huge int to Semigroup's range check.
    """
    if len(rows) != n:
        raise FormatError(f"expected {n} rows of {n} entries, got {len(rows)} rows", lineno)
    tokens = [t for _, t in rows]
    try:
        table = np.fromiter(map(_int, chain.from_iterable(tokens)), np.int64, n * n).reshape(n, n)
    except (ValueError, OverflowError):  # no int, beyond int64, or too few tokens
        table = None
    if table is None or set(map(len, tokens)) != {n}:
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
    token = [str(v) for v in range(S.size)].__getitem__  # each entry's text, built once per table
    return "".join(" ".join(map(token, row.tolist())) + "\n" for row in S.array)


_table_rows = memo_on_object(serialize_table_text)


# -- SGI instances --------------------------------------------------------------

def parse_instance(text: str) -> Instance:
    """Parse and fully validate an SGI document (associativity included)."""
    raw = text.splitlines()
    numbered = enumerate(raw, start=1)  # a TABLE block may skip its rows here, past the logical lines
    split = (lambda line: line.partition("#")[0].split()) if "#" in text else str.split
    it = ((lineno, tokens) for lineno, line in numbered if (tokens := split(line)))

    lineno, tokens = _take(it)
    if tokens != ["SGI", "1"]:
        raise FormatError("expected header 'SGI 1'", lineno)

    lineno, tokens = _take(it)
    if len(tokens) != 2 or tokens[0] != "ALPHABET":
        raise FormatError("expected 'ALPHABET <m>'", lineno)
    m = _ints(tokens[1:], "alphabet size", lineno)[0]
    if m < 1:
        raise FormatError("alphabet must be non-empty", lineno)

    names_line = columns = None
    tables: dict[str, Semigroup] = {}
    constraints: list[tuple] = []  # (table, images, accept set, name) of each
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
            S = None  # the next n raw lines are the rows if the one after them is END
            block = raw[lineno:lineno + n + 1] if _internable(n) else ()
            if len(block) > n and block[n].split() == ["END"]:
                try:
                    S = _interned("\n".join(block[:n]), n)
                    next(islice(numbered, n, n), None)  # past the rows
                except (ValueError, OverflowError):
                    pass
            if S is None:
                rows = list(islice(takewhile(lambda line: line[1] != ["END"], it), n))  # stops at END
                try:
                    S = _read_table(rows, n, lineno)
                except AssociativityError as exc:
                    raise FormatError(f"table {name!r} is not associative: {exc}", lineno) from exc
            tables[name] = S
            elineno, etokens = _take(it)
            if etokens != ["END"]:
                raise FormatError("expected 'END' closing the TABLE block", elineno)
        elif tokens[0] == "CONSTRAINT":
            if not constraints and split is str.split:  # no comments: try the section as whole columns
                columns = _constraint_columns(raw[lineno - 1:], tables, m)
                if columns is not None:
                    break
            if len(tokens) != 2:
                raise FormatError("expected 'CONSTRAINT <tablename>'", lineno)
            tname = tokens[1]
            if tname not in tables:
                raise FormatError(f"constraint references undeclared table {tname!r}", lineno)
            S = tables[tname]
            cname = images = accept = None
            for blineno, btokens in it:
                head = btokens[0]
                if head == "IMAGES" and images is None:
                    images = _ints(btokens[1:], "image index", blineno)
                    if len(images) != m:
                        raise FormatError(f"IMAGES needs {m} indices, got {len(images)}", blineno)
                    _at_line(blineno, Morphism, images, S)  # raises a range error at its line
                elif head == "ACCEPT" and accept is None:
                    accept = _at_line(blineno, Constraint, Morphism((0,), S),
                                      _ints(btokens[1:], "accept index", blineno)).accept
                elif btokens == ["END"]:
                    break
                elif head == "NAME" and cname is None:
                    if len(btokens) != 2:
                        raise FormatError("expected 'NAME <token>'", blineno)
                    cname = btokens[1]
                elif head in ("IMAGES", "ACCEPT", "NAME"):
                    raise FormatError(f"repeated {head} in CONSTRAINT block", blineno)
                else:
                    raise FormatError(f"unexpected token {head!r} in CONSTRAINT block", blineno)
            else:
                raise FormatError("unexpected end of file")
            if images is None:
                raise FormatError("CONSTRAINT block lacks IMAGES", lineno)
            if accept is None:
                raise FormatError("CONSTRAINT block lacks ACCEPT", lineno)
            constraints.append((S, images, accept, cname))
        elif tokens[0] == "NAMES" and names_line is None and not tables:  # only right after ALPHABET
            names_line = lineno
            if len(tokens) != m + 1:
                raise FormatError(f"NAMES needs {m} tokens, got {len(tokens) - 1}", names_line)
            names = tuple(tokens[1:])
        else:
            raise FormatError(f"unexpected token {tokens[0]!r}", lineno)

    if columns is None:
        if not constraints:
            raise FormatError("instance declares no constraints")
        columns = zip(*constraints)  # the images as lists, which Instance converts
    if names_line is None:  # built only now: each IMAGES line held m tokens, so the text bounds m
        names = default_letter_names(m)
    return _at_line(names_line, Instance.from_columns, names, *columns)


def _joined(lines: list[str], head: str) -> str:
    """The raw lines joined by newlines if each starts with ``head``, else ''."""
    text = "\n".join(lines)
    return text if text.startswith(head) and text.count("\n" + head) == len(lines) - 1 else ""


def _constraint_columns(lines: list[str], tables: dict[str, Semigroup], m: int):
    """The columns (tables, images, accept sets, names) of the CONSTRAINT
    blocks in ``lines``, the raw lines from the first CONSTRAINT line to the
    end, read as whole columns; None unless every line is in a block as
    ``serialize_instance`` writes them, with NAME in every block or in none,
    and every value is in range.  Equal ACCEPT lines share one set.
    """
    stride = 5 if len(lines) > 1 and lines[1].startswith("NAME ") else 4
    k, extra = divmod(len(lines), stride)
    images = _joined(lines[stride - 3::stride], "IMAGES ").split()
    names = _joined(lines[1::5], "NAME ")[5:].split("\nNAME ") if stride == 5 else (None,) * k
    if extra or lines[stride - 1::stride].count("END") != k or len(images) != k * (m + 1) or (
            stride == 5 and " ".join(names).split() != names):
        return None
    heads = {f"CONSTRAINT {name}": (S, S.size) for name, S in tables.items()}
    sets = {}  # each distinct ACCEPT line's set and largest element
    try:
        targets, sizes = zip(*map(heads.__getitem__, lines[::stride]))
        for line in set(accept_lines := lines[stride - 2::stride]):
            head, *values = line.split() or ("",)
            accept = frozenset(map(_int, values))
            if head != "ACCEPT" or min(accept, default=0) < 0:
                return None
            sets[line] = accept, max(accept, default=-1)
        accepts, tops = zip(*map(sets.__getitem__, accept_lines))
        del images[::m + 1]  # an IMAGES token left, where a line is not m + 1 tokens, fails int()
        images = np.fromiter(map(_int, images), np.intp, k * m).reshape(k, m)
    except (KeyError, ValueError, OverflowError):  # an unknown table, or a token that int() or intp cannot hold
        return None
    if images.min() < 0 or (np.maximum(images.max(axis=1), tops) >= sizes).any():
        return None
    return targets, images, accepts, names


def serialize_instance(instance: Instance) -> str:
    """Canonical form: tables deduplicated by content, constraints in order.

    Tables are named T0, T1, ... in order of first appearance.  A table's
    row block is memoised on its object and is its dedup key: equal texts
    are equal tables, and a ``str`` caches its hash.
    """
    out = [f"SGI 1\nALPHABET {instance.alphabet_size}\nNAMES {' '.join(instance.letter_names)}\n"]
    by_rows: dict[str, str] = {}  # equal tables share a name
    heads = []  # the CONSTRAINT line of each of instance.tables
    for S in instance.tables:
        rows = _table_rows(S)
        fresh = f"T{len(by_rows)}"
        name = by_rows.setdefault(rows, fresh)
        if name == fresh:
            out.append(f"TABLE {fresh} {S.size}\n{rows}END\n")
        heads.append(f"CONSTRAINT {name}\n")
    token = [str(v) for v in range(max(S.size for S in instance.tables))].__getitem__
    tails: dict[frozenset[int], str] = {}  # each distinct accept set's ACCEPT and END lines
    for j, name, images, accept in zip(instance.table_index.tolist(), instance.names,
                                       instance.images.tolist(), instance.accepts):
        if (tail := tails.get(accept)) is None:
            tail = tails[accept] = "".join([" " + token(x) for x in sorted(accept)] + ["\nEND\n"])
        head = heads[j] if name is None else f"{heads[j]}NAME {name}\n"
        out.append(f"{head}IMAGES {' '.join(map(token, images))}\nACCEPT{tail}")
    return "".join(out)


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
