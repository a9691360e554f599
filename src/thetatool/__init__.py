"""Exact symmetric-pair combinatorics for involutions of simple algebraic
groups: restricted root systems with multiplicities, baby Weyl groups and
their invariant degrees, regular-nilpotent cocharacters, component counts
of the nilpotent cone in p, and a Chevalley-basis modular Lie algebra layer
for property-testing the dimension identities."""

from .rootsys import (
    CapExceededError,
    FiniteAbelianGroup,
    NonFiniteQuotientError,
    RootSystem,
    RootSystemError,
    build_root_system,
)
from .satake import (
    InvolutionClassEntry,
    KPDimensions,
    SatakeInvolution,
    UnknownClassError,
    catalog_list,
    catalog_lookup,
)
from .restricted import RestrictedRootSystem, restrict
from .weylinv import invariant_degrees, poincare_polynomial
from .nilcomp import ComponentReport, component_count, omega, verify_w0_decomposition

__all__ = [
    "CapExceededError",
    "ComponentReport",
    "FiniteAbelianGroup",
    "InvolutionClassEntry",
    "KPDimensions",
    "NonFiniteQuotientError",
    "RestrictedRootSystem",
    "RootSystem",
    "RootSystemError",
    "SatakeInvolution",
    "UnknownClassError",
    "build_root_system",
    "catalog_list",
    "catalog_lookup",
    "component_count",
    "invariant_degrees",
    "omega",
    "poincare_polynomial",
    "restrict",
    "verify_w0_decomposition",
]

__version__ = "0.1.0"
