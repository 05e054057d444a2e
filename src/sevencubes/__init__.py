"""Decomposition of integers into seven nonnegative cubes.

Even targets n == 2 (mod 4) are handled by an explicit identity route
(see `construct`); everything else at desk scale falls back to a complete
exhaustive search.  The `certify` module recomputes every table, constant
and scan the construction relies on.
"""

from .construct import (
    ConstructionError,
    NotRepresentableError,
    OutOfScopeError,
    Trace,
    decompose,
    verify,
)
from .search import (
    EXCEPTIONS,
    EXCEPTIONS_EVEN,
    SEARCH_MAX_N,
    SearchLimitError,
    exception_scan,
    search_cubes,
    search_seven,
)

__version__ = "0.1.0"

__all__ = [
    "EXCEPTIONS",
    "EXCEPTIONS_EVEN",
    "SEARCH_MAX_N",
    "ConstructionError",
    "NotRepresentableError",
    "OutOfScopeError",
    "SearchLimitError",
    "Trace",
    "decompose",
    "exception_scan",
    "search_cubes",
    "search_seven",
    "verify",
    "__version__",
]
