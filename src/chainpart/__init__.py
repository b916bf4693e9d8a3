"""chainpart: strictly chained two-base integer partitions.

Library plus CLI for generating, encoding, counting, sampling and analyzing
partitions into distinct parts p^a * q^b (coprime p, q >= 2) in which every
part divides the next larger one.

The exports load on first use (PEP 562), so ``import chainpart.cli`` compiles
only the CLI and ``core``: a submodule export loads that module alone, and
any other export runs every import of ``_exports``.
"""

import importlib

__version__ = "0.1.0"

#: The submodules exported by name.
_MODULES = ("analytics", "codec", "core", "counting", "decomposition", "enumeration",
            "graph23", "shortest")


def _exports() -> dict:
    """The exports other than the submodules, by name."""
    from .core import (
        BudgetError, ChainBreakError, ChainPartError, DuplicatePartError, InvalidSystemError,
        InvariantViolationError, MalformedWordError, NonSmoothPartError, Partition,
        PartitionError, PQSystem, UnreachableSumError, binary_partition, brute_force_enumerate,
        chain_census, from_json, make_system, map_p, map_q, to_json, validate, value,
    )
    from .counting import (
        CaseTableCounter, CountTable, DirectSumCounter, HalvingCounter, digits_zero_one,
        make_counter,
    )
    from .codec import (
        TreeWord, is_valid_lattice_word, lattice_decode, lattice_encode, tree_decode, tree_encode,
    )
    from .enumeration import OmegaSet, ResidueEnumerator, SplitEnumerator, sample_uniform
    from .graph23 import build_graph, neighbors, random_walk, reduce_to_binary
    from .shortest import ChainCost, ShortestTable, chain_cost, chain_pow
    from .analytics import (
        GrowthExponents, check_growth_bound, check_local_monotonicity, classify_small_counts,
        constant_upper_bound, doubling_witnesses, estimate_growth_constant, max_count_jumps,
        solve_exponents,
    )
    return locals()


# the names that _exports binds are its local variables, known before it runs
__all__ = sorted(_MODULES + _exports.__code__.co_varnames)


def _export(name: str) -> object:
    """The module ``__getattr__``: resolve an export on its first access.

    Only the names of ``__all__`` are answered: ``from . import core`` asks
    here first, and must not load every module.
    """
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals().update(_exports())
    return globals()[name]


__getattr__ = _export
__dir__ = lambda: sorted({*globals(), *__all__})
