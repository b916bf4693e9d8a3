"""Word encodings of strictly chained partitions.

Tree words (p = 2 only).  The binary table splits Omega(U) on the part 1 as
``decomposition`` does, but reads the label ``1`` as adding 1 to the block of
powers of 2, with carries, which keeps every branch disjoint and unfiltered.
Its rows, ``TREE_ROWS``, are keyed by U & 1 and by U mod q as 0, 1 or other:

    U mod q:    0         1          other
    even U      q, 1      2, 1q      2
    odd U       q, 1      1          12

A branch's argument is U with its labels undone, first label first: ``1``
subtracts 1, ``2`` halves and ``q`` divides by q.  So Omega(U) is a tree
whose nodes are the successive arguments and whose edges are labelled 1
(the +1 map), 2 (scale by 2) or q (scale by q).  Reading the labels from the
root U down to a leaf of value 1 yields one word per partition; replaying the
reversed word from the single-part partition of 1 rebuilds the partition.
The word of the one-part partition of 1 is the empty word (the root is
already the leaf).  For fixed U the word set is a hypercode: no word is a
subsequence of another.

Lattice words (any bases).  A partition is a chain C in N^2; the canonical
C-filling path walks from (0, 0) to the maximal point of C, always going
North before East (minimal abscissas).  Each visited point contributes one
letter:

    0   not in C, step East        1   in C, step East
    2   not in C, step North       3   in C, step North or maximal point

The canonical words are exactly the words over {0,1,2,3} that end in 3 and
contain neither 02 nor 12 as a factor; for fixed U they form an infix code
(no word is a factor of another).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .core import ChainBreakError, MalformedWordError, Partition, PQSystem, fill_memo

#: The label rows of the binary table: TREE_ROWS[U & 1][c], c = U mod q if that is 0 or 1, else 2.
TREE_ROWS = ((("q", "1"), ("2", "1q"), ("2",)),
             (("q", "1"), ("1",), ("12",)))
LATTICE_ALPHABET = "0123"


def _labels(leads: str, keep: Callable[[str], str]) -> tuple[tuple[Optional[str], ...], ...]:
    """Per row of ``TREE_ROWS``, ``keep`` of its first label that starts with a letter
    of ``leads``, or None."""
    return tuple(tuple(next((keep(label) for label in row if label[0] in leads), None)
                       for row in rows) for rows in TREE_ROWS)


# What ``tree_encode`` undoes from an odd amount, by parity and class, and
# from an even one, by class: the row's first label that starts with 1, or
# with 2 or 1, with 1q cut to 1.
_UNDO_ODD = _labels("1", lambda label: "1" if label == "1q" else label)
_UNDO_EVEN = _labels("21", lambda label: "1" if label == "1q" else label)[0]
# What ``tree_decode`` checks after a replayed 1, by parity and class, and
# after a 2, by class: the rest of the row's label that starts with it.
_AFTER_1 = _labels("1", lambda label: label[1:])
_AFTER_2 = _labels("2", lambda label: label[1:])[0]


def require_p2(sys: PQSystem) -> None:
    if sys.p != 2:
        raise MalformedWordError("tree words are defined for p = 2 systems only")


class TreeWord(str):
    """A word over the letters 1, 2 and q (stored symbolically): the string of its letters."""

    __slots__ = ()

    def __new__(cls, letters: str) -> "TreeWord":
        word = super().__new__(cls, letters)
        bad = word.strip("12q")
        if bad:
            raise MalformedWordError(f"invalid tree letter {bad[0]!r}")
        return word

    @property
    def letters(self) -> str:
        """The letters: the word's string."""
        return str(self)

    def render(self, sys: PQSystem) -> str:
        """Concrete text: the q letter prints as the digit q itself.

        For q >= 10 letters are separated by '.' so the text stays parseable.
        A plain ``str`` of letters renders as ``TreeWord.render(text, sys)``.
        """
        return (".".join(self) if sys.q >= 10 else self).replace("q", str(sys.q))

    @classmethod
    def parse(cls, text: str, sys: PQSystem) -> "TreeWord":
        """The word of a rendered text; MalformedWordError names the first bad token.

        Undotted text for q < 10 is checked with one ``strip`` of the three
        letter digits and mapped with one ``replace``; dotted text, and any
        text for q >= 10, is read token by token.  The checked text is the word.
        """
        text = text.strip()
        q = str(sys.q)
        if not text or sys.q < 10 and "." not in text and not text.strip("12" + q):
            return str.__new__(cls, text.replace(q, "q"))
        tokens = text.split(".") if "." in text or sys.q >= 10 else text
        for tok in tokens:
            if tok != "1" and tok != "2" and tok != q:
                raise MalformedWordError(f"token {tok!r} is not a letter for {sys}")
        return str.__new__(cls, "".join("q" if tok == q else tok for tok in tokens))


def tree_encode(pt: Partition, sys: PQSystem) -> TreeWord:
    """The root-to-leaf label word of ``pt`` in the binary table.

    The walk undoes one label at a time, so that what is left is always a
    node of the table, held as exponent offsets da and db, its parts with
    b > 0 (a pointer into them, smallest first) and its binary amount, the
    sum of its parts with b = 0.  It needs neither the sum nor big-integer
    division, only the node's row:
    - With no binary amount, every part is a multiple of q, and the label is
      q (the rows of class 0 start with it).
    - Otherwise the node's class is the amount's, and its parity the amount's
      plus the number of the parts with b > 0 that have a = da: none for an
      even amount, which on a chain stays below 2^(a - da + 1) for each of
      them.  An odd amount (the part 1) undoes the row's label that starts
      with 1, and an even one the row's first label that starts with 2 or 1
      (``_UNDO_ODD``, ``_UNDO_EVEN``); of 1q only the 1 is undone, which
      empties the amount, so the next label is its q.
    Each letter costs O(1) amortized, not a new tuple.  Each part is checked
    against the last one taken, so a ``pt`` that is no chain raises ChainBreakError.
    """
    require_p2(sys)
    if not pt:
        raise MalformedWordError("the empty partition (of 0) has no tree word")
    q, undo_odd, undo_even = sys.q, _UNDO_ODD, _UNDO_EVEN
    # the parts with b = 0 end the chain and make the amount, each over the sum of those after
    # it; the others, smallest first, are rest; top is the exponent of 2 of the last part taken
    n_rest, amount, top = len(pt), 0, 0
    while n_rest and not pt[n_rest - 1][1]:
        n_rest -= 1
        top = pt[n_rest][0]
        if amount >> top:
            raise ChainBreakError(f"{pt} is not a chain")
        amount += 1 << top
    rest = pt[n_rest - 1::-1] if n_rest else ()
    # the node is the amount and the parts (a - da, b - db) of rest[i:], of
    # which rest[i:k] have a = da
    da = db = i = k = 0
    while k < n_rest and rest[k][0] == 0:
        k += 1
    labels: list[str] = []
    append = labels.append
    while True:
        if not amount:
            db += 1
            least = top  # the least a of the level's next part; da <= top, so no shift is negative
            while i < n_rest and rest[i][1] == db:
                top = rest[i][0]
                if top < least:
                    raise ChainBreakError(f"{pt} is not a chain")
                least = top + 1
                amount += 1 << (top - da)
                i += 1
            if i < n_rest and rest[i][1] < db:
                raise ChainBreakError(f"{pt} is not a chain")
            if k < i:
                k = i
            append("q")
            continue
        c = amount % q
        if amount & 1:
            if amount == 1 and i == n_rest:
                break
            label = undo_odd[(1 ^ k - i) & 1][c if c < 2 else 2]
        else:
            label = undo_even[c if c < 2 else 2]
        if label == "1":
            amount -= 1
        elif label is None:
            raise MalformedWordError("partition does not reduce to the leaf")  # unreachable
        else:  # 2 or 12: an odd amount drops the part 1, then halves
            amount >>= 1
            da += 1
            while k < n_rest and rest[k][0] == da:
                k += 1
        append(label)
    return str.__new__(TreeWord, "".join(labels))  # the letters of TREE_ROWS: no check


def tree_decode(word: str, sys: PQSystem) -> tuple[int, Partition]:
    """Replay a word from the leaf and check that it is canonical; returns (U, partition).

    A word is canonical when it spells the path of the binary table from its
    value U down to the leaf 1.  One pass over the reversed letters replays
    them from the leaf: it computes U, and lifts the partition with its
    binary amount as one integer (1 adds 1, 2 doubles it, q freezes it as the
    parts of its bits, scaled by the letters still to come).  The same pass
    checks the path: each branch argument is the inverse of its labels, so
    the descent from U visits exactly the replayed values, and the word is
    canonical when, read from U, each letter that starts a label starts one
    of its node's row, and the label's other letter, if any, follows it.
    s = U mod q is kept alongside U, an add and a compare per letter, and
    ``_AFTER_1`` (by U's parity) and ``_AFTER_2`` give the label's rest.
    Since the labels split the word from its first letter on, the pass
    keeps, for the next two positions, whether the rest of the word reads as
    labels from there.  Any word that is not canonical raises
    MalformedWordError, all with one message, which names the rendered word.
    ``word`` is a TreeWord or a plain ``str`` of its letters, as
    ``TreeLanguage.words`` gives; the pass reads an exact ``str`` of it.
    """
    require_p2(sys)
    letters = str(word)
    q, on1, on2 = sys.q, _AFTER_1, _AFTER_2
    u = amount = s = 1  # the leaf: the part 1, in the binary amount; s = u mod q
    frozen = []  # (amount, 2s and qs replayed before it) at each q
    da = db = 0
    # ok1, ok2: the word from the next position / the one after splits into
    # matching labels (the position after the end does, one past it not)
    ok1, ok2, after = True, False, ""
    for letter in reversed(letters):
        if letter == "2":
            u += u
            amount += amount
            da += 1
            s += s
            if s >= q:
                s -= q
            rest = on2[s if s < 2 else 2]
        elif letter == "1":
            u += 1
            amount += 1
            s += 1
            if s == q:
                s = 0
            rest = on1[u & 1][s if s < 2 else 2]
        else:
            u *= q
            frozen.append((amount, da, db))
            amount = 0
            db += 1
            s = 0
            rest = ""
        if rest == "":
            ok2 = ok1
        elif rest is None:
            ok1, ok2 = False, ok1
        else:
            ok1, ok2 = ok2 and after == rest, ok1
        after = letter
    if not ok1:
        raise MalformedWordError(f"{TreeWord.render(word, sys)} is not a canonical tree word")
    parts: list[tuple[int, int]] = []
    for bits, da_at, db_at in frozen + [(amount, da, db)]:
        a0, b = da - da_at, db - db_at
        while bits:
            top = bits.bit_length() - 1
            parts.append((top + a0, b))
            bits ^= 1 << top
    return u, Partition(parts)


class TreeLanguage:
    """The tree words of every value, memoized by ``core.fill_memo``."""

    def __init__(self, sys: PQSystem) -> None:
        require_p2(sys)
        self.sys = sys
        self._memo: dict[int, tuple[str, ...]] = {0: (), 1: ("",)}

    def words(self, v: int) -> tuple[str, ...]:
        """All tree words of v, none for v < 0: plain ``str``s of the letters 1, 2 and q,
        each equal to its TreeWord, which ``tree_decode`` takes as they are."""
        if v < 0:
            return ()
        memo = self._memo
        return fill_memo(memo, v, self._branches, lambda _, branches: tuple(
            labels + w for labels, arg in zip(*branches) for w in memo[arg]))

    def _branches(self, x: int) -> tuple[tuple[str, ...], list[int]]:
        """The labels of x's row and, for each, x with its labels undone, first label first."""
        q = self.sys.q
        labels_of = TREE_ROWS[x & 1][min(x % q, 2)]
        args = []
        for labels in labels_of:
            arg = x
            for letter in labels:
                arg = arg - 1 if letter == "1" else arg // (2 if letter == "2" else q)
            args.append(arg)
        return labels_of, args


def lattice_encode(pt: Partition) -> str:
    """The canonical lattice word of a nonempty partition.

    The path goes North before East, so it is one run of letters per step of
    the chain: 2s then 0s up to the smallest part (a0, b0), then for each
    next part, da and db further on, 3 and db - 1 2s and da 0s when db > 0,
    else 1 and da - 1 0s, and a final 3 at the largest part.
    """
    if not pt:
        raise MalformedWordError("the empty partition (of 0) has no lattice word")
    a, b = pt[-1]
    runs = ["2" * b, "0" * a]
    for k in range(len(pt) - 2, -1, -1):
        a1, b1 = pt[k]
        if b1 > b:
            runs.append("3" + "2" * (b1 - b - 1) + "0" * (a1 - a))
        else:
            runs.append("1" + "0" * (a1 - a - 1))
        a, b = a1, b1
    runs.append("3")
    return "".join(runs)


def is_valid_lattice_word(word: str) -> bool:
    """Syntactic membership test: ends in 3, no factor 02 or 12."""
    return (word[-1:] == "3" and not word.strip(LATTICE_ALPHABET)
            and "02" not in word and "12" not in word)


def lattice_decode(word: str) -> Partition:
    """Rebuild the chain encoded by a canonical lattice word.

    The path's point (a, b) is counted up letter by letter: 0 and 1 step
    East, 2 and 3 North, and 1 and 3 put the point they stand on in C.
    """
    if not is_valid_lattice_word(word):
        raise MalformedWordError(f"{word!r} is not a lattice word")
    chain: list[tuple[int, int]] = []
    a = b = 0
    for ch in word:
        if ch == "0":
            a += 1
        elif ch == "2":
            b += 1
        else:
            chain.append((a, b))
            if ch == "1":
                a += 1
            else:
                b += 1
    return Partition(reversed(chain))


def lattice_language(max_len: int) -> Iterable[str]:
    """All lattice words of length <= max_len (depth-first order).

    Walks every string over {0,1,2,3} avoiding the factors 02 and 12 and
    yields those ending in 3.  Only a stack of prefixes is kept in memory.
    """
    stack: list[tuple[str, bool]] = [("", False)]
    while stack:
        prefix, after01 = stack.pop()
        if len(prefix) >= max_len:
            continue
        for ch in "013" if after01 else "0123":
            word = prefix + ch
            if ch == "3":
                yield word
            stack.append((word, ch in "01"))


def subsequence(short: str, long: str) -> bool:
    """True when ``short`` is a (not necessarily contiguous) subword of ``long``."""
    it = iter(long)
    return all(ch in it for ch in short)


def check_hypercode(words: Iterable[str]) -> Optional[tuple[str, str]]:
    """Return a violating pair (shorter-is-subsequence-of-longer), if any.

    The pairs are tried in the order of a stable sort by length, and the
    first violating one is returned.  A pair is tested only when each
    letter occurs in the shorter word at most as often as in the longer one
    (their Parikh vectors), which every subsequence satisfies.  The letter
    counts of a word are packed into one integer, a field per letter with a
    guard bit on top, so the test is one subtraction: a field of the longer
    word's counts, guard set, minus the shorter's keeps its guard exactly
    when the count does not drop.
    """
    by_len = sorted(words, key=len)
    if not by_len:
        return None
    alphabet = sorted(set().union(*by_len))
    width = len(by_len[-1]).bit_length() + 1
    guards = sum(1 << (width * k + width - 1) for k in range(len(alphabet)))
    counts = [sum(w.count(ch) << (width * k) for k, ch in enumerate(alphabet)) for w in by_len]
    longer = 0  # the first index of a word longer than w
    # equal-length distinct words are never subsequences of each other
    for w, cw in zip(by_len, counts):
        while longer < len(by_len) and len(by_len[longer]) <= len(w):
            longer += 1
        for v, cv in zip(by_len[longer:], counts[longer:]):
            if (cv | guards) - cw & guards == guards and subsequence(w, v):
                return (w, v)
    return None


def check_infix_code(words: Iterable[str]) -> Optional[tuple[str, str]]:
    """Return a violating pair (shorter-is-factor-of-longer), if any."""
    by_len = sorted(words, key=len)
    for i, w in enumerate(by_len):
        for v in by_len[i + 1 :]:
            if len(w) < len(v) and w in v:
                return (w, v)
    return None
