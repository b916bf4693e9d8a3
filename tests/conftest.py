import pytest

from chainpart.core import Partition, make_system


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
