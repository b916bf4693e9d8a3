"""`enumerate` stdout at the sizes the benchmark runs, pinned by hash.

The golden corpus covers `enumerate` only at U <= 1300.  These hashes are the
sha256 of stdout recorded while Omega(U) was still built by one `unrank`
descent per member, so a change to the members, their sorted order or any of
the four output formats shows here.  9,555,147 is the `sets` workload's
largest enumeration (5,413 members); the other sums are chain sums near 10^6.
"""

import contextlib
import hashlib
import io

import pytest

from chainpart import cli

CASES = [
    (["enumerate", "--u", "9555147", "--format", "json"],
     "a1ff6d17ad0e9d5df1f5f6dc1b0e1d326b092fb662e318ee6320b8315f11cb6b"),
    (["enumerate", "--u", "9555147", "--format", "csv"],
     "34e61d5c6fc94a9ffc9658f8bcae64b151cf01b0eb95f6d6207f978f8e837fe9"),
    (["enumerate", "--u", "9555147", "--format", "words"],
     "9813cb8a1e591c3da6c1eee17f5296a5bac50da9a5cbdf735a8b4b0d88a3be7e"),
    (["enumerate", "--u", "9555147", "--format", "tree"],
     "fff83dbe4d04f171ffccb9fb07ef4a17c40f4f02bc3d74d903f86bf5120ee35d"),
    # 58 members
    (["enumerate", "--u", "1002436", "--p", "3", "--q", "4", "--format", "json"],
     "fd8a8a7a39877685e1da0e284169c53bae06c34995409a387c693c0f4f8e63cd"),
    (["enumerate", "--u", "1002436", "--p", "3", "--q", "4", "--format", "csv"],
     "e03821564f886aacb3cfd5328efcdf576f132d4f45c07b112d7f388db5dd5978"),
    # 151 members
    (["enumerate", "--u", "1002625", "--p", "2", "--q", "5", "--format", "json"],
     "e6f7fc86d97a91a3e7ad4253910a12a3bcef468bfcd632a6f2099c55637b6355"),
    (["enumerate", "--u", "1002625", "--p", "2", "--q", "5", "--format", "tree"],
     "f81ad84902b643494814bbb5a81921f1115f9a14ad44db8e3298f4b5562cd2b3"),
    # 28 members
    (["enumerate", "--u", "1000419", "--p", "2", "--q", "7", "--format", "json"],
     "c199f1540d82a9f5bcda7a9dbcef199cba8766e2bfd8778116dcdb060bcec731"),
    (["enumerate", "--u", "1000419", "--p", "2", "--q", "7", "--format", "words"],
     "f45a662bf68004639de08d20164022f7f0fe3a0d186acf7836c0ab5ba6cffce3"),
]


@pytest.mark.parametrize("argv, digest", CASES, ids=[" ".join(c[0][1:]) for c in CASES])
def test_enumerate_output_identity(argv, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
