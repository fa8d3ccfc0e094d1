"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or out-of-range input (CLI exit code 2)."""


class NonFiniteError(InputError):
    """An array holds a NaN or an infinity; inside a run, an iterate has overflowed."""


class ParseError(InputError):
    """LibSVM text could not be parsed; carries the offending line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class ConfigurationError(Exception):
    """Algorithm parameters violate a convergence condition (CLI exit code 3)."""


class ConvergenceError(RuntimeError):
    """An iterative solver hit its cap before reaching tolerance (CLI exit code 4)."""
