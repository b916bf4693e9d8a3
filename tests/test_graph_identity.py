"""`walk` and `graph` stdout at the sizes the benchmark runs, pinned by hash.

The golden corpus covers the graph commands only at small U.  These hashes
are the sha256 of stdout recorded before the transition graph was rebuilt
on forward edges, O(1) inverse checks and an iFUB diameter, so any change
to a walk's path, the DOT text or the JSON counts shows here.
"""

import contextlib
import hashlib
import io

import pytest

from chainpart import cli

CASES = [
    (["walk", "--u", "100003", "--steps", "1000", "--seed", "7"],
     "64cb941a198cfaf203ece5e0899e87ab5ebe888629db815ea567615df8f93aee"),
    (["walk", "--u", "314159", "--steps", "600", "--seed", "271828"],
     "bf83b3ff8d69ab01dbaea0bd4e879000f7dbdd5a0ccbbad99129a041f151b13a"),
    (["walk", "--u", "1000007", "--steps", "1000", "--seed", "11"],
     "149abdf8cf47ab140ef3e8681c43fea843d0e2069266492fe6ecf8d2eb5c5aeb"),
    (["walk", "--u", "2718281", "--steps", "850", "--seed", "424242"],
     "973fb6190fa4cc1d2ed8c0352471b03d572f3ae7e1e3aa00c6d77ea62acfe3ca"),
    (["walk", "--u", "4466374", "--steps", "1000", "--seed", "5"],
     "2b89bf2972e5b23e7b2cbfc0f3379678ffaf613b0a6d5bf0a7bbb2fbe4165b25"),
    (["graph", "--u", "90585", "--dot"],
     "b0ad95031439c8afcd0687e65dcaf1e64b3a2a8f46ac7ddd00c02f9171d1bc7a"),
    (["graph", "--u", "90585"],
     "96904ece41c02bfe5402d3f80a32f32e065bfee165dd97611c2a7a2ca5f4f3c7"),
    (["graph", "--u", "99000", "--dot"],
     "3158bc4b4de44de7b175b8acbd617ac7167309d54750f0aed104153ab4572cea"),
    (["graph", "--u", "99000"],
     "281cc152decf83a9e8a095402e56793df0a58eae4ac54755a5819e8f1648d83e"),
    # {"u":895707,"vertices":1609,"edges":5326,"connected":true,"diameter":46}
    (["graph", "--u", "895707"],
     "517099881360afbf62e2b551ab22dbb06a77b11f83c9a051223ee70243f50bb6"),
]


@pytest.mark.parametrize("argv, digest", CASES, ids=[" ".join(c[0][:3]) for c in CASES])
def test_graph_output_identity(argv, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
