"""Error taxonomy shared across modules; the CLI maps these to exit codes."""

from __future__ import annotations


class ConfplanError(Exception):
    """Base class for library errors."""


class ConfigError(ConfplanError):
    """Invalid parameters, configuration files, or CLI arguments."""


class GenerationError(ConfplanError):
    """Scenario sampling failed after bounded retries (contradictory params)."""


class OracleError(ConfplanError):
    """Canonical-plan construction or label validation failed."""


class BudgetError(ConfplanError):
    """An exhaustive search or enumeration exceeded its configured budget."""


class NoFeasibleError(ConfplanError):
    """No feasible decision exists from the current state."""


class PlanningAborted(ConfplanError):
    """Interactive help was aborted after repeated invalid input."""


class TransportError(ConfplanError):
    """External scoring endpoint failed (timeout, connection, HTTP error)."""


class AuthError(TransportError):
    """Missing or rejected credentials for the external endpoint."""


class MalformedResponseError(TransportError):
    """The endpoint answered but no score could be extracted."""


class InfeasibleAlphaError(ConfplanError):
    """No adjusted miscoverage level satisfies the fixed-calibration bound."""
