"""Exception types shared across the library."""


class OrthosymError(Exception):
    """Base class for all orthosym errors."""


class DimensionError(OrthosymError):
    """Input has the wrong shape, or operand dimensions disagree."""


class SymmetryError(OrthosymError):
    """Matrix fails the symmetry requirement of the operation."""


class StructureError(OrthosymError):
    """Block or multiplicity structure of the operands is incompatible."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details


class ConvergenceError(OrthosymError):
    """The eigensolver failed to converge."""


class SizeCapError(OrthosymError):
    """Problem size exceeds the hard cap of the requested algorithm."""


class LimitExceededError(OrthosymError):
    """Result count passed the caller-supplied limit."""


class InputFormatError(OrthosymError):
    """Malformed text input."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class EvaluationError(OrthosymError):
    """A scalar field returned a non-finite value."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class MembershipError(OrthosymError):
    """A matrix claimed as a symmetry fails the membership test."""


class DegenerateProbeError(OrthosymError):
    """Probe values underflow; the displacement is too small or the field too flat."""


class DivergenceError(OrthosymError):
    """Trajectory left the finite range of floating point."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step
