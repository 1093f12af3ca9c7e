"""Exception hierarchy shared across the toolkit, and the integer rule of its
JSON files.

Each error class carries the command line's exit code for it, which its
subclasses inherit: 2 for bad usage or configuration (`GridChargeError`,
`ConfigError`), 3 for input data that breaks a documented invariant
(`ValidationError`, `ParameterError`) and 4 for a failed simulation
(`SimulationError`, `SimulationIncomplete`).
"""

import json


class GridChargeError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2


class ConfigError(GridChargeError):
    """Bad configuration: unknown keys, malformed values, incompatible flags."""


class ValidationError(GridChargeError):
    """Input data violates a documented invariant (bad CSV row, infeasible request, ...)."""

    exit_code = 3


class ParameterError(ValidationError):
    """Controller parameters are dimensionally or structurally inconsistent."""


class SimulationError(GridChargeError):
    """Numerical failure during a simulation run (non-finite state, broken invariant)."""

    exit_code = 4


class SimulationIncomplete(SimulationError):
    """A request reached its departure with energy still owed."""


def json_integer(path: object, field: str, value: object, expected: int | None = None,
                 error: type[ValidationError] = ValidationError) -> int:
    """`value`, which must be a JSON integer (an int, not a bool or a float)
    equal to `expected` if that is given; anything else raises `error`
    naming the file `path` and the `field`."""
    if type(value) is not int:
        raise error(f"{path}: {field} must be a JSON integer, got {json.dumps(value)}")
    if expected is not None and value != expected:
        raise error(f"{path}: {field} is {value}, expected {expected}")
    return value
