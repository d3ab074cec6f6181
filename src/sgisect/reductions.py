"""Compiling 3-SAT formulas into semigroup intersection instances.

Literals are signed ints in DIMACS style: +i is variable i, -i its negation,
variables numbered from 1.  Clauses are literal sets of width 1 to 3.  The
reduction alphabet for k variables has 2k letters named x1..xk, nx1..nxk;
letter index i-1 carries literal +i and letter index k+i-1 carries -i.

Two gadgets are provided.  The counting gadget works over the min-capped
addition semigroup on {1..k+2}: one constraint pins the word length to k, one
per variable pins the polarity choice to exactly one letter, and one per
clause requires some clause literal to occur.  The interval gadget works over
the nilpotent interval semigroup: a single constraint forces the word shape
l_1...l_k with l_i in {x_i, nx_i}, and one constraint per clause sends clause
literals to zero and accepts only zero.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .families import mincap, nilinterval
from .solve import Instance

SAT_EXHAUSTIVE_CAP = 24


class AssignmentUndefinedError(ValueError):
    """The word induces no assignment (conflicting or missing polarities)."""


@dataclass(frozen=True)
class CnfFormula:
    variable_count: int
    clauses: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "variable_count", operator.index(self.variable_count))
        if self.variable_count < 0:
            raise ValueError("variable count must be >= 0")
        clauses = tuple(frozenset(map(operator.index, c)) for c in self.clauses)
        object.__setattr__(self, "clauses", clauses)
        for idx, clause in enumerate(clauses):
            if not clause:
                raise ValueError(f"clause {idx} is empty")
            if len(clause) > 3:
                raise ValueError(f"clause {idx} has width {len(clause)} > 3")
            for lit in clause:
                if lit == 0 or not 1 <= abs(lit) <= self.variable_count:
                    raise ValueError(f"literal {lit} in clause {idx} out of range")

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class Assignment:
    bits: tuple[int, ...]  # bits[i] is the value of variable i+1

    def __post_init__(self):
        bits = tuple(map(operator.index, self.bits))
        if any(b not in (0, 1) for b in bits):
            raise ValueError("assignment bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    def literal(self, lit: int) -> int:
        return self.bits[lit - 1] if lit > 0 else 1 - self.bits[-lit - 1]

    def clause(self, clause) -> int:
        return max(self.literal(l) for l in clause)

    def satisfies(self, formula: CnfFormula) -> bool:
        return all(self.clause(c) == 1 for c in formula.clauses)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF; clauses wider than 3 (after collapsing) are rejected."""
    variable_count = None
    declared_clauses = None
    tokens: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"line {lineno}: malformed header {line!r}")
            try:
                variable_count = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise ValueError(f"line {lineno}: malformed header {line!r}") from None
            continue
        if variable_count is None:
            raise ValueError(f"line {lineno}: clause data before the 'p cnf' header")
        try:
            tokens.extend(int(tok) for tok in line.split())
        except ValueError:
            raise ValueError(f"line {lineno}: bad token in {line!r}") from None
    if variable_count is None:
        raise ValueError("missing 'p cnf' header")

    clauses: list[frozenset[int]] = []
    current: set[int] = set()
    for lit in tokens:
        if lit == 0:
            if current:
                clauses.append(frozenset(current))
                current = set()
            continue
        if not 1 <= abs(lit) <= variable_count:
            raise ValueError(f"literal {lit} out of range 1..{variable_count}")
        current.add(lit)
    if current:
        clauses.append(frozenset(current))
    if declared_clauses is not None and declared_clauses != len(clauses):
        warnings.warn(f"header declares {declared_clauses} clauses, found {len(clauses)}")
    return CnfFormula(variable_count, tuple(clauses))


def sat_solve_exhaustive(formula: CnfFormula, cap: int = SAT_EXHAUSTIVE_CAP) -> Assignment | None:
    """Least satisfying assignment (x1 most significant, 0 before 1), or None."""
    k = formula.variable_count
    if k > cap:
        raise ValueError(f"{k} variables exceed the exhaustive cap of {cap}")
    for packed in range(1 << k):
        bits = tuple((packed >> (k - 1 - i)) & 1 for i in range(k))
        a = Assignment(bits)
        if a.satisfies(formula):
            return a
    return None


def reduction_alphabet(k: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, k + 1)) + tuple(f"nx{i}" for i in range(1, k + 1))


def _literal_cells(formula: CnfFormula, first_row: int) -> list[int]:
    """The flat positions, in a row-major image matrix of 2k columns, of every
    clause literal's letter, clause j (from 0) on row first_row + j."""
    k = formula.variable_count
    return [(first_row + j) * 2 * k + (lit - 1 if lit > 0 else k - lit - 1)
            for j, clause in enumerate(formula.clauses) for lit in clause]


def reduce_unbounded(formula: CnfFormula) -> Instance:
    """Counting-gadget reduction; satisfiable iff the formula is.

    All k+1+n constraints share the min-capped addition semigroup on {1..k+2}.
    The g0 constraint accepts value k (so witnesses have length exactly k),
    each gi doubles the weight of x_i and nx_i and accepts value k+1 (exactly
    one of the pair occurs), and each clause constraint doubles the weight of
    its literals and accepts {k+1, k+2} (some literal occurs).  Element v-1
    is value v, so weight 1 is element 0 and weight 2 element 1.
    """
    k = formula.variable_count
    if k < 1:
        raise ValueError("need at least one variable")
    n = formula.clause_count
    images = np.zeros((1 + k + n, 2 * k), dtype=np.intp)
    pairs = [(1 + i) * 2 * k + i + letter for i in range(k) for letter in (0, k)]  # x_i and nx_i in gi
    images.put(pairs + _literal_cells(formula, 1 + k), 1)
    accepts = (frozenset({k - 1}),) + (frozenset({k}),) * k + (frozenset({k, k + 1}),) * n
    names = ("g0", *(f"g{i}" for i in range(1, k + 1)), *(f"h{j}" for j in range(1, n + 1)))
    return Instance.from_columns(reduction_alphabet(k), [mincap(k + 2)] * len(names), images, accepts, names)


def reduce_nilpotent(formula: CnfFormula) -> Instance:
    """Interval-gadget reduction; satisfiable iff the formula is.

    The 1+n constraints share the nilpotent interval semigroup for k.  The g
    constraint maps both letters of variable i to the interval (i,i) and
    accepts only (1,k), forcing witnesses of the shape l_1...l_k; each clause
    constraint additionally sends its literals to zero and accepts only zero.
    Element c+1 is the c-th interval (i,j), in order of i, then j (see
    ``nilinterval``), so (i,i) is element 1 + (i-1)k - (i-1)(i-2)/2 and
    (1,k) element k.
    """
    k = formula.variable_count
    if k < 1:
        raise ValueError("need at least one variable")
    n = formula.clause_count
    images = np.empty((1 + n, 2 * k), dtype=np.intp)
    images[:] = [1 + i * k - i * (i - 1) // 2 for i in range(k)] * 2  # (i+1,i+1) for both letters of i+1
    images.put(_literal_cells(formula, 1), 0)
    accepts = (frozenset({k}),) + (frozenset({0}),) * n
    names = ("g", *(f"h{j}" for j in range(1, n + 1)))
    return Instance.from_columns(reduction_alphabet(k), [nilinterval(k)] * len(names), images, accepts, names)


def assignment_to_word(assignment: Assignment) -> tuple[int, ...]:
    """The length-k word choosing x_i when variable i is true, nx_i otherwise."""
    k = len(assignment.bits)
    return tuple(i if assignment.bits[i] else k + i for i in range(k))


def word_to_assignment(word, k: int) -> Assignment:
    """The assignment reading letter occurrences as truth values.

    Raises AssignmentUndefinedError when both polarities of a variable occur,
    or when a variable occurs in neither.
    """
    pos = set()
    neg = set()
    for a in word:
        if not 0 <= a < 2 * k:
            raise ValueError(f"letter {a} outside the reduction alphabet for {k} variables")
        (pos if a < k else neg).add(a % k)
    conflict = pos & neg
    if conflict:
        i = min(conflict) + 1
        raise AssignmentUndefinedError(f"both x{i} and nx{i} occur")
    missing = set(range(k)) - pos - neg
    if missing:
        i = min(missing) + 1
        raise AssignmentUndefinedError(f"variable x{i} occurs in neither polarity")
    return Assignment(tuple(1 if i in pos else 0 for i in range(k)))
