"""Lucas sequences, products of factorials, and the certified bound cascade.

The root exports the exact layer, which loads no mpmath. The interval layer
and the cascade are imported from ``lucaspf.interval`` and ``lucaspf.pipeline``.
"""

from .errors import (
    Degenerate,
    DomainError,
    LucasPFError,
    NonIntegerResult,
    NotCoprime,
    Undecidable,
    ZeroDiscriminant,
    ZeroInput,
)
from .lucas import LucasParams, SeqKind, SeqTerm, u_at, v_at, validate_params
from .factorials import PFWitness, pf_decompose, pf_fast_reject, pf_member
from .search import SearchConfig, SearchHit, search_pf_terms, verify_fibonacci_identity

__all__ = [
    "SearchConfig",
    "SearchHit",
    "search_pf_terms",
    "verify_fibonacci_identity",
    "Degenerate",
    "DomainError",
    "LucasPFError",
    "LucasParams",
    "NonIntegerResult",
    "NotCoprime",
    "PFWitness",
    "SeqKind",
    "SeqTerm",
    "Undecidable",
    "ZeroDiscriminant",
    "ZeroInput",
    "pf_decompose",
    "pf_fast_reject",
    "pf_member",
    "u_at",
    "v_at",
    "validate_params",
]
