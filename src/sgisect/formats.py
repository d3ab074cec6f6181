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

Range checks belong to the value types (``Semigroup`` for table entries,
``Morphism`` for images, ``Constraint`` for accept sets); the parser adds the
line number to their errors and checks only counts and block structure.

SLP grammar: a header line ``SLP 1``, a line ``START <var>``, then one line
``<var> = <sym> <sym> ...`` per variable.  Tokens starting with ``X`` are
variables; all other tokens are letter names (which therefore must not start
with ``X``).  Definition order is free.
"""

from __future__ import annotations

from .circuits import BooleanCircuit
from .core import AssociativityError, Morphism, Semigroup, check_associative
from .slp import Slp, is_var_ref, ref_target, validate_slp, var_ref
from .solve import Constraint, Instance


class FormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


def _logical_lines(text: str):
    """(lineno, tokens) for each non-empty line after comment stripping."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body.split()


def default_letter_names(m: int) -> tuple[str, ...]:
    return tuple(f"a{i}" for i in range(m))


def _ints(tokens, what: str, lineno: int) -> list[int]:
    try:
        return [int(t) for t in tokens]
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


def _read_table(rows, n: int, lineno: int) -> Semigroup:
    """The semigroup whose table is ``rows``, (lineno, tokens) pairs; a bad row is reported at its line."""
    if len(rows) != n:
        raise FormatError(f"expected {n} rows of {n} entries, got {len(rows)} rows", lineno)
    table = []
    for rlineno, tokens in rows:
        row = _ints(tokens, "table entry", rlineno)
        if len(row) != n:
            raise FormatError(f"row has {len(row)} entries, expected {n}", rlineno)
        table.append(row)
    return _at_line(lineno, check_associative, table)


# -- raw multiplication tables -------------------------------------------------

def parse_table_text(text: str) -> Semigroup:
    """Rows of indices; the first row fixes n.  A non-associative table raises AssociativityError."""
    lines = list(_logical_lines(text))
    if not lines:
        raise FormatError("empty table")
    return _read_table(lines, len(lines[0][1]), lines[0][0])


def serialize_table_text(S: Semigroup) -> str:
    return "".join(" ".join(str(v) for v in row) + "\n" for row in S.table)


# -- SGI instances --------------------------------------------------------------

def parse_instance(text: str) -> Instance:
    """Parse and fully validate an SGI document (associativity included)."""
    lines = list(_logical_lines(text))
    pos = 0

    def peek():
        return lines[pos] if pos < len(lines) else (None, None)

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise FormatError("unexpected end of file")
        item = lines[pos]
        pos += 1
        return item

    lineno, tokens = take()
    if tokens != ["SGI", "1"]:
        raise FormatError("expected header 'SGI 1'", lineno)

    lineno, tokens = take()
    if len(tokens) != 2 or tokens[0] != "ALPHABET":
        raise FormatError("expected 'ALPHABET <m>'", lineno)
    m = _ints(tokens[1:], "alphabet size", lineno)[0]
    if m < 1:
        raise FormatError("alphabet must be non-empty", lineno)

    names = default_letter_names(m)
    _, tokens = peek()
    if tokens and tokens[0] == "NAMES":
        lineno, tokens = take()
        if len(tokens) != m + 1:
            raise FormatError(f"NAMES needs {m} tokens, got {len(tokens) - 1}", lineno)
        names = tuple(tokens[1:])

    tables: dict[str, Semigroup] = {}
    constraints: list[Constraint] = []
    while pos < len(lines):
        lineno, tokens = take()
        if tokens[0] == "TABLE":
            if len(tokens) != 3:
                raise FormatError("expected 'TABLE <name> <n>'", lineno)
            name = tokens[1]
            if name in tables:
                raise FormatError(f"duplicate table {name!r}", lineno)
            n = _ints(tokens[2:], "table size", lineno)[0]
            if n < 1:
                raise FormatError("table size must be >= 1", lineno)
            rows = lines[pos:pos + n]
            pos += len(rows)
            try:
                tables[name] = _read_table(rows, n, lineno)
            except AssociativityError as exc:
                raise FormatError(f"table {name!r} is not associative: {exc}", lineno) from exc
            elineno, etokens = take()
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
            while True:
                blineno, btokens = take()
                if btokens == ["END"]:
                    break
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
            if morphism is None:
                raise FormatError("CONSTRAINT block lacks IMAGES", lineno)
            if accept is None:
                raise FormatError("CONSTRAINT block lacks ACCEPT", lineno)
            constraints.append(_at_line(accept_line, Constraint, morphism, accept, cname))
        else:
            raise FormatError(f"unexpected token {tokens[0]!r}", lineno)

    if not constraints:
        raise FormatError("instance declares no constraints")
    return Instance(names, tuple(constraints))


def serialize_instance(instance: Instance) -> str:
    """Canonical form: tables deduplicated by content, constraints in order."""
    lines = ["SGI 1", f"ALPHABET {instance.alphabet_size}",
             "NAMES " + " ".join(instance.letter_names)]
    table_names: dict[tuple, str] = {}
    table_order: list[Semigroup] = []
    for c in instance.constraints:
        key = c.semigroup.table
        if key not in table_names:
            table_names[key] = f"T{len(table_names)}"
            table_order.append(c.semigroup)
    for S in table_order:
        lines.append(f"TABLE {table_names[S.table]} {S.size}")
        for row in S.table:
            lines.append(" ".join(str(v) for v in row))
        lines.append("END")
    for c in instance.constraints:
        lines.append(f"CONSTRAINT {table_names[c.semigroup.table]}")
        if c.name is not None:
            lines.append(f"NAME {c.name}")
        lines.append("IMAGES " + " ".join(str(v) for v in c.morphism.images))
        accept = " ".join(str(v) for v in sorted(c.accept))
        lines.append("ACCEPT" + (" " + accept if accept else ""))
        lines.append("END")
    return "".join(line + "\n" for line in lines)


# -- SLPs ------------------------------------------------------------------------

def parse_slp_text(text: str, letter_names=None) -> tuple[Slp, tuple[str, ...]]:
    """Parse an SLP file; returns the SLP and the letter names in index order.

    With ``letter_names`` given, letter tokens must come from that list; else
    letters are indexed in order of first appearance.
    """
    lines = list(_logical_lines(text))
    if not lines or lines[0][1] != ["SLP", "1"]:
        raise FormatError("expected header 'SLP 1'", lines[0][0] if lines else None)
    if len(lines) < 2 or len(lines[1][1]) != 2 or lines[1][1][0] != "START":
        raise FormatError("expected 'START <var>' after the header",
                          lines[1][0] if len(lines) > 1 else None)
    start_tok = lines[1][1][1]

    fixed = letter_names is not None
    letters: dict[str, int] = {name: i for i, name in enumerate(letter_names)} if fixed else {}
    var_ids: dict[str, int] = {}
    bodies: dict[int, list] = {}

    def var_id(tok: str, lineno: int) -> int:
        if not tok.startswith("X"):
            raise FormatError(f"variable token {tok!r} must start with 'X'", lineno)
        return var_ids.setdefault(tok, len(var_ids))

    raw_defs = []
    for lineno, tokens in lines[2:]:
        if len(tokens) < 3 or tokens[1] != "=":
            raise FormatError("expected '<var> = <sym> ...'", lineno)
        raw_defs.append((lineno, tokens))
    for lineno, tokens in raw_defs:
        v = var_id(tokens[0], lineno)
        if v in bodies:
            raise FormatError(f"variable {tokens[0]!r} defined twice", lineno)
        body = []
        for tok in tokens[2:]:
            if tok.startswith("X"):
                body.append(("v", tok))
            else:
                if tok not in letters:
                    if fixed:
                        raise FormatError(f"unknown letter {tok!r}", lineno)
                    letters[tok] = len(letters)
                body.append(("l", letters[tok]))
        bodies[v] = (lineno, body)
    if start_tok not in var_ids:
        raise FormatError(f"start variable {start_tok!r} is never defined")

    rhs = []
    for v in range(len(var_ids)):
        if v not in bodies:
            tok = next(t for t, i in var_ids.items() if i == v)
            raise FormatError(f"variable {tok!r} is referenced but never defined")
        lineno, body = bodies[v]
        symbols = []
        for kind, val in body:
            if kind == "l":
                symbols.append(val)
            else:
                if val not in var_ids or var_ids[val] not in bodies:
                    raise FormatError(f"variable {val!r} is referenced but never defined", lineno)
                symbols.append(var_ref(var_ids[val]))
        rhs.append(tuple(symbols))

    alphabet = len(letters) if not fixed else len(letter_names)
    if alphabet == 0:
        raise FormatError("SLP uses no letters and no alphabet was supplied")
    G = validate_slp(alphabet, tuple(rhs), var_ids[start_tok])
    names = tuple(letter_names) if fixed else tuple(sorted(letters, key=letters.get))
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

def _wire_token(wire, neg: bool) -> str:
    kind = wire[0]
    if kind == "in":
        tok = f"in{wire[1]}"
    elif kind == "g":
        tok = f"g{wire[1]}"
    else:
        tok = "const0"
    return ("!" + tok) if neg else tok


def serialize_circuit_text(C: BooleanCircuit) -> str:
    """Netlist dump: inputs are table bits then image bits, MSB first."""
    lines = [
        "CIRCUIT 1",
        f"N {C.n}",
        f"ALPHABET {C.alphabet_size}",
        f"BITS {C.bits}",
        f"TABLEBITS {C.table_bit_count}",
        f"IMAGEBITS {C.image_bit_count}",
    ]
    for i, gate in enumerate(C.gates):
        wires = " ".join(_wire_token(w, neg) for w, neg in gate.inputs)
        lines.append(f"GATE g{i} {gate.op} {wires}")
    for wire, neg in C.outputs:
        lines.append(f"OUTPUT {_wire_token(wire, neg)}")
    lines.append(f"SIZE {C.size}")
    lines.append(f"DEPTH {C.depth}")
    return "".join(line + "\n" for line in lines)
