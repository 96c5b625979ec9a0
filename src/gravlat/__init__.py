"""Dirac fermions coupled to massive diagonal frame fluctuations on a
honeycomb lattice: geometry and action checks, the coupling dictionary,
truncated Fock-space exact diagonalization, and cold-atom design tools."""

__version__ = "0.1.0"

from .geometry import ModelParams, SpacetimeGrid  # noqa: F401
