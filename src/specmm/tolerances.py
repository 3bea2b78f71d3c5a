"""Numerical tolerances for the whole library, collected in one record.

Every comparison that admits rounding error routes through a field of
``Tolerances`` so that accuracy requirements are stated once and stay
consistent between the solvers, the lifts, and the file loaders. The
defaults are tuned for dense symmetric problems of modest order (n up to
a few dozen) in double precision.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Tolerances", "DEFAULT_TOLS"]


@dataclass(frozen=True)
class Tolerances:
    # strategy-domain membership
    spectraplex_trace: float = 1e-10
    spectraplex_eig: float = 1e-10
    simplex_entry: float = 1e-12
    simplex_sum: float = 1e-12

    # embedding lifts and extraction
    lift_psd: float = 1e-10
    lift_residual: float = 1e-10
    extract_clamp: float = 1e-10
    degenerate_sum: float = 1e-12
    weak_duality: float = 1e-9

    # instance file ingestion
    asymmetry_warn: float = 1e-9
    asymmetry_error: float = 1e-6


DEFAULT_TOLS = Tolerances()
