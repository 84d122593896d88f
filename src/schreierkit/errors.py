"""Exception types shared across the toolkit.

Structural problems (malformed tables, broken preconditions) are kept
distinct from law violations, which are reported as data, not raised.
"""


class ToolkitError(Exception):
    pass


class StructuralError(ToolkitError):
    """Malformed input: non-square table, out-of-range index, broken split."""


class SignatureMismatch(ToolkitError):
    """Operands live over different signatures (kind or extra-op names)."""


class GuardExceeded(ToolkitError):
    """An enumeration would exceed its guard; names the required bound and
    the CLI flag that sets the guard."""

    def __init__(self, what: str, required: int, limit: int, flag: str):
        self.what = what
        self.required = required
        self.limit = limit
        self.flag = flag
        super().__init__(
            f"{what}: needs {required} candidates, guard is {limit}; "
            f"raise {flag} (library keyword guard) to at least {required} "
            f"to run this enumeration"
        )


class NotSchreier(ToolkitError):
    """Operation requires a Schreier point; carries the failing witness."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"point is not Schreier: {witness.describe()}")


class InvalidAction(ToolkitError):
    """Operation requires a law-abiding action; carries the report."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"action violates its laws: {report.first_violation()}")


class ComputationError(ToolkitError):
    """A certified identity failed to evaluate: a transcription bug, not bad input."""
