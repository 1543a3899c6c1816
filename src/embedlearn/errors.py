"""Exception types shared across the package.

The hierarchy mirrors how failures are reported at the command line:
configuration problems, data problems, and numerical problems map to
distinct exit codes there.
"""

from __future__ import annotations


class EmbedlearnError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(EmbedlearnError):
    """Malformed or inconsistent run configuration."""


class DataError(EmbedlearnError):
    """Malformed measurement data or mismatched provenance."""


class NumericalError(EmbedlearnError):
    """A numerical procedure left its domain of validity."""


class BranchCutError(NumericalError):
    """Matrix logarithm undefined: an eigenvalue sits on the branch cut.

    The offending eigenvalue is carried in ``eigenvalue``.
    """

    def __init__(self, eigenvalue: complex):
        self.eigenvalue = eigenvalue
        super().__init__(
            f"eigenvalue {eigenvalue!r} lies within 1e-10 of the principal "
            "branch cut; no principal logarithm"
        )


class IllConditionedError(NumericalError):
    """Eigenvector matrix too ill-conditioned to invert reliably."""

    def __init__(self, cond: float):
        self.cond = cond
        super().__init__(f"eigenvector matrix condition number {cond:.3e} > 1e10")


class ZeroProbabilityError(NumericalError):
    """A measurement record has exactly zero probability under the model."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"outcome probability is exactly zero at step {step}")


class TomographyError(NumericalError):
    """The tomography MLE of one channel of a stack failed.

    The channel's index in the stack is carried in ``channel``.
    """

    def __init__(self, message: str, channel: int):
        self.channel = channel
        super().__init__(message)


class FixedPointError(NumericalError):
    """Channel fixed point not unique enough to define an equilibrium state."""

    def __init__(self, moduli: tuple[float, float]):
        self.moduli = moduli
        super().__init__(
            "fixed point not unique: two largest eigenvalue moduli "
            f"{moduli[0]:.12f}, {moduli[1]:.12f}"
        )


class DivergenceError(NumericalError):
    """An iterative fit diverged; carries the objective trace."""

    def __init__(self, message: str, trace: list[float]):
        self.trace = trace
        super().__init__(message)
