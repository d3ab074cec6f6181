import random

import numpy as np
import pytest

from sgisect import formats
from sgisect.core import direct_product, sub_semigroup, subsemigroup_closure
from sgisect.slp import first_words
from sgisect.families import (cyclic, enumerate_semigroup_tables, leftzero, mincap,
                              nilinterval, rightzero, trivial)


@pytest.fixture(scope="session")
def small_semigroups():
    """Every associative table of size 1, 2 and 3 (exhaustive)."""
    return [S for n in (1, 2, 3) for S in enumerate_semigroup_tables(n)]


@pytest.fixture(scope="session")
def family_pool():
    """A varied pool of constructively built semigroups for randomized tests."""
    pool = [trivial()]
    pool += [mincap(m) for m in range(2, 7)]
    pool += [leftzero(n) for n in (2, 3)]
    pool += [rightzero(n) for n in (2, 3)]
    pool += [cyclic(n) for n in (2, 3, 4)]
    pool += [nilinterval(k) for k in (1, 2, 3)]
    pool.append(direct_product([mincap(2), mincap(3)])[0])
    pool.append(direct_product([leftzero(2), cyclic(2)])[0])
    return pool


@pytest.fixture(scope="session")
def derived_pool(family_pool):
    """``family_pool``, the direct product of each ordered pair from it, and
    three generated sub-semigroups of each of its members."""
    rng = random.Random(1729)
    pool = list(family_pool)
    pool += [direct_product([a, b])[0] for a in family_pool for b in family_pool]
    for S in family_pool:
        for _ in range(3):
            gens = rng.sample(range(S.size), rng.randint(1, S.size))
            pool.append(sub_semigroup(S, subsemigroup_closure(S, gens))[0])
    return pool


@pytest.fixture
def memory_error_at_depth_2(monkeypatch):
    """``np.unpackbits``, which the BFS calls once per stored layer, just
    before its accept test, raises ``MemoryError`` on its second call: at
    depth 2.  Nothing large is allocated."""
    unpack, calls = np.unpackbits, []

    def unpackbits(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise MemoryError("Unable to allocate 1.00 MiB")
        return unpack(*args, **kwargs)

    monkeypatch.setattr(np, "unpackbits", unpackbits)


@pytest.fixture
def fresh_word_memo():
    """An empty ``slp.first_words`` memo for the test, emptied again after it."""
    first_words.cache_clear()
    yield
    first_words.cache_clear()


@pytest.fixture
def fresh_table_intern():
    """An empty TABLE-block intern cache of ``parse_instance`` for the test, emptied again after it."""
    formats._interned.cache_clear()
    yield formats._interned
    formats._interned.cache_clear()
