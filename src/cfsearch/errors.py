"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, infeasible constraint systems with 3, violated runtime invariants
with 4.  Anything else is a plain bug and propagates as-is.
"""

from __future__ import annotations


class CfSearchError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CfSearchError):
    """A configuration file, spec definition, or CLI argument is invalid."""


class GenomeError(CfSearchError):
    """A genome does not belong to the search space it was used with."""


class EnumerationTooLargeError(ConfigError):
    """An exhaustive enumeration would exceed the configured cap."""


class ShapeError(CfSearchError):
    """Tensor shapes do not line up; message names the offending layer."""


class NonFiniteLossError(CfSearchError):
    """Training produced a NaN or infinite loss; message carries diagnostics."""


class InfeasibleError(CfSearchError):
    """No genome satisfies the resource constraints; names the tightest one."""


class InvariantError(CfSearchError):
    """A documented runtime invariant failed; state should not be trusted."""


class LedgerFormatError(ConfigError):
    """A fairness ledger dump could not be parsed."""
