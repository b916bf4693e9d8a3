"""chainpart: strictly chained two-base integer partitions.

Library plus CLI for generating, encoding, counting, sampling and analyzing
partitions into distinct parts p^a * q^b (coprime p, q >= 2) in which every
part divides the next larger one.
"""

from .core import (
    BudgetError,
    ChainBreakError,
    ChainPartError,
    DuplicatePartError,
    InvalidSystemError,
    InvariantViolationError,
    MalformedWordError,
    NonSmoothPartError,
    Partition,
    PartitionError,
    PQSystem,
    UnreachableSumError,
    binary_partition,
    brute_force_enumerate,
    chain_census,
    from_json,
    make_system,
    map_p,
    map_q,
    to_json,
    validate,
    value,
)
from .counting import (
    CaseTableCounter,
    CountTable,
    DirectSumCounter,
    HalvingCounter,
    digits_zero_one,
    make_counter,
)
from .codec import (
    TreeWord,
    is_valid_lattice_word,
    lattice_decode,
    lattice_encode,
    tree_decode,
    tree_encode,
)
from .enumeration import (
    OmegaSet,
    ResidueEnumerator,
    SplitEnumerator,
    sample_uniform,
)
from .graph23 import build_graph, neighbors, random_walk, reduce_to_binary
from .shortest import ChainCost, ShortestTable, chain_cost, chain_pow
from .analytics import (
    GrowthExponents,
    check_growth_bound,
    check_local_monotonicity,
    classify_small_counts,
    constant_upper_bound,
    doubling_witnesses,
    estimate_growth_constant,
    max_count_jumps,
    solve_exponents,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
