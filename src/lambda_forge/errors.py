"""Exception hierarchy shared by all lambda_forge modules.

Two broad families matter to callers: configuration/usage problems
(:class:`ConfigError`, CLI exit code 2) and failures that occur while
computing (:class:`ComputationError`, CLI exit code 3).  Plain
``ValueError`` is used for ordinary precondition violations on library
functions and is treated like a usage error by the CLI.
"""

from __future__ import annotations


class LambdaForgeError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(LambdaForgeError):
    """Bad configuration file, missing key, or invalid CLI usage."""


class HypothesisViolation(ConfigError):
    """A config-asserted hypothesis required by an operation is false.

    Example: predicting lambda-invariants requires the asserted vanishing
    of the mu-invariant; running the density experiment requires the
    asserted surjectivity of the residual image.  ``FormContext.require`` raises
    both, each with its row's text in ``forms.HYPOTHESES``, the certified inputs.
    """


class TableFormatError(ConfigError):
    """A coefficient table failed to parse or validate."""


class ComputationError(LambdaForgeError):
    """A computation could not be completed."""


class CoverageError(ComputationError):
    """The coefficient backend cannot supply a_ell for a needed prime."""

    def __init__(self, ell: int, message: str | None = None):
        self.ell = ell
        super().__init__(message or f"backend supplies no coefficient for prime {ell}")

    def __reduce__(self):  # pickled on its way back from a pool worker
        return type(self), (self.ell, str(self))


class ScarcityError(ComputationError):
    """A scan found fewer usable primes than requested."""


class ResourceLimitError(ComputationError):
    """A bound (sieve size, factor bound, exponent cap, point-count size) was exceeded."""


class PointCountError(ComputationError):
    """Point counting could not pin down the group order unambiguously."""
