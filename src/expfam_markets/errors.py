"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter, outcome, or state lies outside its admissible domain."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class ConfigError(ValueError):
    """A simulation or CLI configuration is malformed or inconsistent."""


class CorruptLogError(DomainError):
    """A trade log fails replay verification.

    Carries the 1-based line number of the first offending record.
    """

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"trade log line {line_number}: {message}")
