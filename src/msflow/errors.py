"""Exception types shared across the package."""


class MsflowError(Exception):
    """Base class for all package errors."""


class ConfigError(MsflowError):
    """Invalid configuration (bad mesh counts, unknown keys, out-of-range schedule)."""


class FieldFileError(MsflowError):
    """Permeability file unreadable, wrong size, or containing non-positive values."""


class NumericRangeError(MsflowError):
    """An evaluation would overflow (e.g. exp argument out of the guarded range)."""


class AssemblyError(MsflowError):
    """Non-positive weight or inconsistent data during matrix assembly."""


class SingularMatrixError(MsflowError):
    """Direct sparse factorization failed."""


class NewtonConvergenceError(MsflowError):
    """Newton iteration did not reach tolerance within the iteration cap."""

    def __init__(self, step, iterations, residual_norm):
        self.step = step
        self.iterations = iterations
        self.residual_norm = residual_norm
        super().__init__(
            f"Newton did not converge at time step {step}: "
            f"{iterations} iterations, last residual norm {residual_norm:.3e}"
        )

    def __reduce__(self):
        # rebuilt from its own arguments, so it crosses a process boundary
        # (a pipe from a forked helper) with its type and fields
        return type(self), (self.step, self.iterations, self.residual_norm)
