"""Word encodings of strictly chained partitions.

Tree words (p = 2 only).  The binary table in ``decomposition`` makes
Omega(U) a tree whose nodes are the successive arguments and whose edges are
labelled 1 (the +1 map), 2 (scale by 2) or q (scale by q).  Reading the
labels from the root U down to a leaf of value 1 yields one word per
partition; replaying the reversed word from the single-part partition of 1
rebuilds the partition.  The word of the one-part partition of 1 is the
empty word (the root is already the leaf).  For fixed U the word set is a
hypercode: no word is a subsequence of another.

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

import functools
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    MalformedWordError,
    Partition,
    PQSystem,
    value,
)
from .decomposition import Branch, binary_table

TREE_LETTERS = ("1", "2", "q")
_TREE_LETTER_SET = frozenset(TREE_LETTERS)
LATTICE_ALPHABET = "0123"


def _require_p2(sys: PQSystem) -> None:
    if sys.p != 2:
        raise MalformedWordError("tree words are defined for p = 2 systems only")


@dataclass(frozen=True, slots=True)
class TreeWord:
    """A word over the letters 1, 2 and q (stored symbolically)."""

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        if not _TREE_LETTER_SET.issuperset(self.letters):
            ch = next(ch for ch in self.letters if ch not in _TREE_LETTER_SET)
            raise MalformedWordError(f"invalid tree letter {ch!r}")

    def __len__(self) -> int:
        return len(self.letters)

    def render(self, sys: PQSystem) -> str:
        """Concrete text: the q letter prints as the digit q itself.

        For q >= 10 letters are separated by '.' so the text stays parseable.
        """
        text = ".".join(self.letters) if sys.q >= 10 else "".join(self.letters)
        return text.replace("q", str(sys.q))

    @classmethod
    def parse(cls, text: str, sys: PQSystem) -> "TreeWord":
        text = text.strip()
        if not text:
            return cls(())
        tokens = text.split(".") if "." in text or sys.q >= 10 else list(text)
        letters = []
        for tok in tokens:
            if tok == "1" or tok == "2":
                letters.append(tok)
            elif tok == str(sys.q):
                letters.append("q")
            else:
                raise MalformedWordError(f"token {tok!r} is not a letter for {sys}")
        return cls(tuple(letters))


def tree_encode(pt: Partition, sys: PQSystem) -> TreeWord:
    """The root-to-leaf label word of ``pt`` in the binary table.

    At each node the word takes the first branch whose leading label can be
    undone, judged by the smallest part (a, b): 2 needs a > 0, q needs b > 0,
    and 1 needs b = 0 (a positive binary amount).  That choice is read from a
    table built once per system (``_tree_branches``) by the residue and the
    state of the smallest part.  The partition being undone is held as
    exponent offsets, a pointer into its parts with b > 0 and its binary
    amount, so each letter costs O(1) amortized, not a new tuple.
    """
    _require_p2(sys)
    if not pt:
        raise MalformedWordError("the empty partition (of 0) has no tree word")
    modulus, branches = _tree_branches(sys)
    u = value(pt, sys)
    # The current partition is the pairs (a - da, b - db) of rest[i:] plus the
    # powers of 2 that sum to ``amount``.
    rest = [(a, b) for a, b in reversed(pt.parts) if b > 0]  # smallest first
    amount = sum(1 << a for a, b in pt.parts if b == 0)
    da = db = i = 0
    labels: list[str] = []
    while u > 1:
        v, r = divmod(u, modulus)
        if amount:  # the smallest part is 2^a with b = 0; a > 0 when amount is even
            branch = branches[r][0 if amount & 1 else 1]
        else:
            branch = branches[r][3 if rest[i][0] > da else 2]
        if branch is None:
            raise MalformedWordError("partition does not reduce to the leaf")  # unreachable
        for letter in branch.labels:
            if letter == "1":
                amount -= 1
            elif letter == "2":
                da += 1
                amount >>= 1
            else:
                db += 1
                while i < len(rest) and rest[i][1] == db:
                    amount += 1 << (rest[i][0] - da)
                    i += 1
        labels.append(branch.labels)
        u = branch.mul * v + branch.off
    if amount != 1 or i < len(rest):
        raise MalformedWordError("partition does not reduce to the leaf")  # unreachable
    return TreeWord(tuple("".join(labels)))


@functools.lru_cache(maxsize=128)
def _tree_branches(sys: PQSystem) -> tuple[int, tuple[tuple[Optional[Branch], ...], ...]]:
    """The modulus, and per residue the branch ``tree_encode`` takes in each state.

    The states of the smallest part (a, b) are 0: b = 0, a = 0; 1: b = 0,
    a > 0; 2: b > 0, a = 0; 3: b > 0, a > 0.  The branch is the row's first
    whose leading label can be undone, or None when there is none.
    """
    decomposition = binary_table(sys)
    rows = []
    for row in decomposition.rows:
        by_state = []
        for a_pos, b_pos in ((False, False), (True, False), (False, True), (True, True)):
            undoable = {"2": a_pos, "q": b_pos, "1": not b_pos}
            by_state.append(next((br for br in row if undoable[br.labels[0]]), None))
        rows.append(tuple(by_state))
    return decomposition.modulus, tuple(rows)


def tree_decode(word: TreeWord, sys: PQSystem) -> tuple[int, Partition]:
    """Replay a word from the leaf; returns (U, partition).

    A word is canonical when it spells a path of the binary table from its
    value U down to the leaf 1.  The descent from U takes at each node the
    branch whose labels come next in the word and rebuilds the partition on
    the way back; MalformedWordError on a mismatch or on unused letters.
    """
    _require_p2(sys)
    letters = "".join(word.letters)
    u = 1
    for letter in reversed(letters):
        u = u + 1 if letter == "1" else u * (2 if letter == "2" else sys.q)
    i = 0

    def match(v: int, row: tuple[Branch, ...]) -> Branch:
        nonlocal i
        for branch in row:
            if letters.startswith(branch.labels, i):
                i += len(branch.labels)
                return branch
        raise MalformedWordError(f"{word.letters} is not a canonical tree word")

    pt = binary_table(sys).descend(u, match)
    if i < len(letters):
        raise MalformedWordError(f"{word.letters} is not a canonical tree word")
    return u, pt


class TreeLanguage:
    """Memoized generator of the full tree-word set per value."""

    def __init__(self, sys: PQSystem) -> None:
        _require_p2(sys)
        self.sys = sys
        self._decomposition = binary_table(sys)
        self._memo: dict[int, tuple[str, ...]] = {0: (), 1: ("",)}

    def words(self, v: int) -> tuple[str, ...]:
        """All symbolic words ('1', '2', 'q' letters concatenated) for v."""
        memo = self._memo
        decomposition = self._decomposition
        stack = [v]
        while stack:
            x = stack[-1]
            if x in memo:
                stack.pop()
                continue
            y, r = divmod(x, decomposition.modulus)
            branches = [(b.labels, b.mul * y + b.off) for b in decomposition.rows[r]]
            missing = [arg for _, arg in branches if arg not in memo]
            if missing:
                stack.extend(missing)
                continue
            memo[x] = tuple(labels + w for labels, arg in branches for w in memo[arg])
            stack.pop()
        return memo[v]


def lattice_encode(pt: Partition) -> str:
    """The canonical lattice word of a nonempty partition.

    The path goes North before East, so it is one run of letters per step of
    the chain: 2s then 0s up to the smallest part (a0, b0), then for each
    next part, da and db further on, 3 and db - 1 2s and da 0s when db > 0,
    else 1 and da - 1 0s, and a final 3 at the largest part.
    """
    if not pt:
        raise MalformedWordError("the empty partition (of 0) has no lattice word")
    parts = pt.parts
    a, b = parts[-1]
    runs = ["2" * b, "0" * a]
    for k in range(len(parts) - 2, -1, -1):
        a1, b1 = parts[k]
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
    return Partition(tuple(reversed(chain)))


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
    """Return a violating pair (shorter-is-subsequence-of-longer), if any."""
    by_len = sorted(words, key=len)
    for i, w in enumerate(by_len):
        for v in by_len[i + 1 :]:
            # equal-length distinct words are never subsequences of each other
            if len(w) < len(v) and subsequence(w, v):
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
