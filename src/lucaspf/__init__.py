"""Lucas sequences, products of factorials, and the certified bound cascade."""

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
from .interval import Interval, log_int
from .lucas import LucasParams, SeqKind, SeqTerm, u_at, v_at, validate_params
from .factorials import PFWitness, pf_decompose, pf_fast_reject, pf_member
from .pipeline import (
    CascadeResult,
    StageConfig,
    emit_report,
    run_general_cascade,
    run_real_cascade,
    run_unit_case,
    stage_violated,
)
from .search import SearchConfig, SearchHit, search_pf_terms, verify_fibonacci_identity

__all__ = [
    "CascadeResult",
    "SearchConfig",
    "SearchHit",
    "StageConfig",
    "emit_report",
    "run_general_cascade",
    "run_real_cascade",
    "run_unit_case",
    "search_pf_terms",
    "stage_violated",
    "verify_fibonacci_identity",
    "Degenerate",
    "DomainError",
    "Interval",
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
    "log_int",
    "pf_decompose",
    "pf_fast_reject",
    "pf_member",
    "u_at",
    "v_at",
    "validate_params",
]
