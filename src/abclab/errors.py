"""Exception hierarchy shared by all abclab modules."""


class AbclabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(AbclabError):
    """A configuration value, such as a unit system id, is not recognized."""


class ValidationError(AbclabError):
    """A value violates a declared type invariant or schema requirement."""


class DomainError(AbclabError):
    """An input lies outside the mathematical domain of an operation."""


class SingularityError(AbclabError):
    """Evaluation was requested at or too close to a field singularity."""


class NumericalError(AbclabError):
    """A numerical routine failed to converge; the message carries diagnostics."""


class ConsistencyError(AbclabError):
    """An internal cross-check failed, signalling a broken upstream computation."""


class ScenarioParseError(AbclabError):
    """A scenario document is malformed."""
