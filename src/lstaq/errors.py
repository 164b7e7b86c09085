"""Exception hierarchy shared by the whole package.

Each error family maps to a process exit code used by the command line
interface: syntax errors exit with 1, well-formedness violations with 2,
alignment failures with 3, and everything else (internal invariants,
resource caps) with 4.
"""

from __future__ import annotations


class LstaqError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 4


class SpecSyntaxError(LstaqError):
    """A specification file could not be tokenized or parsed."""

    exit_code = 1

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{line}:{column}: {message}" if line else message)
        self.line = line
        self.column = column


class WellFormednessError(LstaqError):
    """Violation of one of the static well-formedness rules."""

    exit_code = 2


class UnknownLengthError(WellFormednessError):
    def __init__(self, var: str):
        super().__init__(f"length of variable '{var}' cannot be inferred")
        self.var = var


class ConflictingLengthError(WellFormednessError):
    def __init__(self, var: str, n1: int, n2: int):
        super().__init__(f"variable '{var}' has conflicting lengths {n1} and {n2}")
        self.var = var
        self.lengths = (n1, n2)


class LengthMismatchError(WellFormednessError):
    def __init__(self, context: str, n1: int, n2: int):
        super().__init__(f"{context}: lengths {n1} and {n2} differ")
        self.context = context
        self.lengths = (n1, n2)


class RedundantSummationVarError(WellFormednessError):
    def __init__(self, var: str):
        super().__init__(
            f"summation variable '{var}' does not occur in the ket pattern"
        )
        self.var = var


class ScopeError(WellFormednessError):
    """A variable is used in a position its binder does not reach."""


class AlignmentError(LstaqError):
    """Assertions cannot be aligned on a common structure."""

    exit_code = 3


class SegmentCountMismatchError(AlignmentError):
    def __init__(self, n1: int, n2: int):
        super().__init__(f"assertions have {n1} and {n2} tensor segments")
        self.counts = (n1, n2)


class SegmentLengthMismatchError(AlignmentError):
    def __init__(self, segment: int, n1: int, n2: int):
        super().__init__(
            f"segment {segment} spans {n1} qubits in one assertion and {n2} in another"
        )
        self.segment = segment
        self.lengths = (n1, n2)


class VariableOverlapError(AlignmentError):
    def __init__(self, var1: str, iv1: tuple[int, int], var2: str, iv2: tuple[int, int]):
        super().__init__(
            f"variable '{var1}' at qubits [{iv1[0]},{iv1[1]}) partially overlaps "
            f"'{var2}' at [{iv2[0]},{iv2[1]})"
        )
        self.occurrences = ((var1, iv1), (var2, iv2))


class InternalError(LstaqError):
    """Invariant violations and resource limits. Exit code 4."""


class ChoiceOverlapError(InternalError):
    def __init__(self, state: int, choice: int):
        super().__init__(f"state {state} has two transitions sharing choice {choice}")
        self.state = state
        self.choice = choice


class DanglingStateError(InternalError):
    def __init__(self, state: int, problem: str = "transition references unknown state"):
        super().__init__(f"{problem} {state}")
        self.state = state


class LimitExceededError(InternalError):
    def __init__(self, limit: int, description: str):
        super().__init__(description)
        self.limit = limit


class EmptyStateError(InternalError):
    def __init__(self) -> None:
        super().__init__("state vector has no nonzero amplitude")


class CapExceededError(InternalError):
    def __init__(self, qubits: int, cap: int):
        super().__init__(f"{qubits} qubits exceed the oracle cap of {cap}")
        self.qubits = qubits
        self.cap = cap


class UnboundComplexVarError(InternalError):
    def __init__(self, var: str):
        super().__init__(f"no value supplied for amplitude variable '{var}'")
        self.var = var
