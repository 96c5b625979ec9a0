"""Error types shared across modules.

The CLI maps these onto exit codes: ConfigError -> 2, ConvergenceError -> 3,
DimensionCapError -> 4, and the domain errors (TopologicalLimitError,
DiracRegimeError, InversionError) -> 1.
"""


class GravlatError(Exception):
    """Base class for all library errors."""


class TopologicalLimitError(GravlatError):
    """G = 0: the momentum-sector coefficient of the quadratic form diverges."""


class DiracRegimeError(GravlatError):
    """Couplings outside 0 < J_z < 2*J_x: no isolated conical points."""


class InversionError(GravlatError):
    """Coupling <-> fluctuation dictionary hit an unreachable value."""


class DimensionCapError(GravlatError):
    """Requested many-body object exceeds the configured size cap."""


class ConvergenceError(GravlatError):
    """Iterative eigensolver failed to reach the required residual."""


class ConfigError(GravlatError):
    """Invalid run configuration; carries the full list of problems."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
