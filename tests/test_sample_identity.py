"""`sample` and `sigma --witness` stdout at 300 to 600 digits, pinned by hash.

The golden corpus covers both commands only at small U.  These hashes are the
sha256 of stdout recorded while the draws and the witness still descended the
general table node by node, so a change to any drawn member, to the seeded
draw order or to the witness shows here.  On (3,5) and (5,7), where a power of
10 may have no partition, U is a seeded chain sum of about that many digits.
"""

import contextlib
import hashlib
import io
import math
import random

import pytest

from chainpart import cli


def chain_sum(p, q, digits, seed):
    """The sum of a seeded random chain whose largest part has about ``digits`` digits."""
    rng = random.Random(seed)
    a = int(rng.random() * digits * math.log(10) / math.log(p))
    b = max(0, int((digits * math.log(10) - a * math.log(p)) / math.log(q)))
    total = 0
    while a >= 0 and b >= 0:
        total += p**a * q**b
        da, db = rng.randint(0, 3), rng.randint(0, 3)
        a, b = a - (da or (0 if db else 1)), b - db
    return total


def argv(command, pq, u):
    base = ["--u", str(u), "--p", str(pq[0]), "--q", str(pq[1])]
    if command == "sample":
        return ["sample"] + base + ["--n", "20", "--seed", "17"]
    return ["sigma"] + base + ["--witness"]


CASES = [
    ("sample", (2, 3), 10**300,
     "edf3d71f3ec36bb5aa09a8054269f0c3c859ebc30aab079ad1a46e89628f37ef"),
    ("sigma", (2, 3), 10**300,
     "23d9efcec90ed2f6dfe65566fdb77da32a4d848588a7ff2aa5a798fe903bf144"),
    ("sample", (2, 3), 3 * 10**599 + 1,
     "12f764b30ec1feb9b8c1e1731976414165ecc25a3d8d55bc4addf2b9e6deac4c"),
    ("sigma", (2, 3), 3 * 10**599 + 1,
     "466a48b1dbbd3b4a4aa4fa8e4b40159e4e8792b63d5f73ef295f8ff5c6d227b3"),
    ("sample", (3, 2), 10**450 + 7,
     "4b8a03308fb907893f63302e17f907bce11828a3ae4b305f8dc4cd990fa6cef1"),
    ("sigma", (3, 2), 10**450 + 7,
     "6d319ecb7a3c56b305bb89a170c63738cc8e1bee783fc7403b758873034df44b"),
    # 7,569,408 members
    ("sample", (3, 5), chain_sum(3, 5, 300, 11),
     "f92f2d9e65ca3adab4c0ccc9679ef4c0e13fe58f0095680627f1bd3f7075add3"),
    ("sigma", (3, 5), chain_sum(3, 5, 300, 11),
     "fb547e5aa78d4a4ebb16d587634f406e066e2f4e23207c652175a99d33d2d720"),
    # 40,550,400 members
    ("sample", (3, 5), chain_sum(3, 5, 600, 5),
     "608aa53d22652a154f9aaabe4c60b55ca1f2be62913d76a6be04dd2ddae3a3b3"),
    ("sigma", (3, 5), chain_sum(3, 5, 600, 5),
     "624bcd79d6bc999dce7a0a04da69b81c857ed965a5a1913b40452a2aeeb80534"),
    # two members, the most of seeds 1..399
    ("sample", (5, 7), chain_sum(5, 7, 400, 124),
     "dbe391355bbf660a4cb7616b752aa4e3a689c3c3991e74ce42e2f621a6b09945"),
    ("sigma", (5, 7), chain_sum(5, 7, 400, 124),
     "5525225194fb73d14999fb6cd91d94d766dac9cac1727ac71d805eb10e5411cc"),
    # two members
    ("sample", (5, 7), chain_sum(5, 7, 600, 363),
     "79a23b74213187e670da67dd3e91829baf9c1a1010ef3157adb6b951cb71d3b4"),
    ("sigma", (5, 7), chain_sum(5, 7, 600, 363),
     "88fff1f53e30be5a41b12b94c91ba683fb4b5058d5b2065a05c638a842f9e048"),
]


@pytest.mark.parametrize("command, pq, u, digest", CASES,
                         ids=[f"{c[0]}-{c[1][0]}-{c[1][1]}-{len(str(c[2]))}d" for c in CASES])
def test_sample_and_witness_output_identity(command, pq, u, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv(command, pq, u)) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
