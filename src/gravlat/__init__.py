"""Dirac fermions coupled to massive diagonal frame fluctuations on a
honeycomb lattice: geometry and action checks, the coupling dictionary,
truncated Fock-space exact diagonalization, and cold-atom design tools."""

__version__ = "0.1.0"

# No imports here: gravlat.cli must set OpenBLAS's thread timeout before numpy loads.
