import functools
from dataclasses import dataclass
from typing import NamedTuple

import pytest

from chainpart.core import Partition, make_system


@pytest.fixture
def damaged_halving_memo(monkeypatch):
    """Criterion 3's engines on (2, 3), with the halving memo damaged at
    u = 2931, a point that the criterion's pointwise pass reads."""
    from chainpart import acceptance
    from chainpart.counting import HalvingCounter

    all_counters = acceptance.counting.all_counters

    def damaged(sys_):
        engines = all_counters(sys_)
        for engine in engines:
            if isinstance(engine, HalvingCounter) and (sys_.p, sys_.q) == (2, 3):
                engine.table[2931] = -1
        return engines

    monkeypatch.setattr(acceptance.counting, "all_counters", damaged)


@pytest.fixture(scope="session")
def sys23():
    return make_system(2, 3)


@pytest.fixture(scope="session")
def sys25():
    return make_system(2, 5)


@pytest.fixture(scope="session")
def sys35():
    return make_system(3, 5)


def _descend_and_lift(table, u, choose):
    """The descent that ``unrank``, the sigma witness and tree decoding once
    shared: walk from u to a leaf, recording the labels of the branch that
    ``choose(u div modulus, row)`` returns at each node, then replay them
    from the leaf to lift the partition back up.  The part 1 carries only in
    the binary table.  It is the oracle of the parts that
    ``decomposition.descend`` builds on the way down, and of ``tree_decode``.
    """
    path = []
    x = u
    while x > 1:
        v, r = divmod(x, table.modulus)
        branch = choose(v, table.rows[r])
        path.append(branch.labels)
        x = branch.mul * v + branch.off
    stored = []  # the parts (a - da, b - db) with b > 0
    block, da, db = [0] * x, 0, 0  # block: a - da of the parts (a, 0), largest first
    for letter in reversed("".join(path)):
        if letter == "1":
            a = -da
            while block and block[-1] == a:
                block.pop()
                a += 1
            block.append(a)
        elif letter == "q":
            stored += [(a, -db) for a in block]
            block, db = [], db + 1
        else:
            da += 1
    parts = [(a + da, b + db) for a, b in stored] + [(a + da, 0) for a in block]
    return Partition(tuple(parts))


@pytest.fixture(scope="session")
def descend_and_lift():
    return _descend_and_lift


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Branch rows indexed by U mod ``modulus``."""

    modulus: int
    rows: tuple


class Branch(NamedTuple):
    """A branch of a table: labels applied to Omega(mul*v + off), v = U div
    modulus, with the smallest-part filter of the general table."""

    labels: str
    mul: int
    off: int
    filtered: bool

    def below(self, a, b):
        """The grid cell of the branch argument taken from the cell (a, b)."""
        return (a + 1, b) if self.labels[-1] == "p" else (a, b + 1)

    def weight(self, rows, a, b):
        """The members under the branch from the cell (a, b), W read from
        ``rows``; a filtered branch into Omega(pv) weighs W(pv) - W(v)."""
        ca, cb = self.below(a, b)
        return rows[cb][ca] - rows[b + 1][a + 1] if self.filtered else rows[cb][ca]


@functools.lru_cache(maxsize=None)
def _general_table(sys_):
    """The table of Omega(U) by U mod pq, for any bases, written out row by
    row: ``p`` when p | r, ``q`` when q | r, ``1p`` when p | r - 1 and ``1q``
    when q | r - 1, the q-side branch filtered when r mod pq <= 1.  The
    library reads the same split from the cell codes of ``grid_cells``; this
    table, which divides each node, is the oracle of those codes."""
    p, q = sys_.p, sys_.q
    rows = []
    for r in range(sys_.pq):
        row = []
        if r % p == 0:
            row.append(Branch("p", q, r // p, False))
        if r % q == 0:
            row.append(Branch("q", p, r // q, r % p == 0))
        if (r - 1) % p == 0:
            row.append(Branch("1p", q, (r - 1) // p, False))
        if (r - 1) % q == 0:
            row.append(Branch("1q", p, (r - 1) // q, (r - 1) % p == 0))
        rows.append(tuple(row))
    return Decomposition(sys_.pq, tuple(rows))


@pytest.fixture(scope="session")
def general_table():
    return _general_table


@functools.lru_cache(maxsize=None)
def _binary_table(sys_):
    """The binary table of the tree words (p = 2, modulus 2q) with each
    branch's argument written out: the oracle of the label rows of
    ``codec.TREE_ROWS``, whose arguments are U with the labels undone."""
    q = sys_.q
    rows = []
    for r in range(2 * q):
        if r % q == 0:
            rows.append((Branch("q", 2, r // q, False), Branch("1", 2 * q, r - 1, False)))
        elif r == 1:
            rows.append((Branch("1", 2 * q, 0, False),))
        elif r == q + 1:
            rows.append((Branch("2", q, r // 2, False), Branch("1q", 2, 1, False)))
        elif r % 2 == 0:
            rows.append((Branch("2", q, r // 2, False),))
        else:
            rows.append((Branch("12", q, (r - 1) // 2, False),))
    return Decomposition(2 * q, tuple(rows))


@pytest.fixture(scope="session")
def binary_oracle():
    return _binary_table
