"""Default resource limits and run parameters."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    """Caps that keep exhaustive enumeration and Kronecker products desk-scale.

    max_matrix_dim bounds every square matrix handled by the package
    (2|E| for edge matrices, product dimension for Kronecker products).
    max_cycle_length bounds brute-force cycle enumeration.
    max_partition_order bounds --order for the verify checks that sum over
    every integer partition of each n <= order (zeta, coeff-roundtrip),
    whose cost grows exponentially in the order.
    """

    max_matrix_dim: int = 64
    max_cycle_length: int = 10
    max_partition_order: int = 30


DEFAULT_LIMITS = Limits()

# CLI defaults: truncation order for series/tables and the largest cycle
# length compared against the brute-force enumerator.
DEFAULT_ORDER = 12
DEFAULT_ORACLE_MAX = 8
