"""Exception types shared across the package."""


class GridsecError(Exception):
    """Base class for all gridsec-specific errors."""


# --- exact LP layer ---

class InconsistentRow(GridsecError):
    """Row reduction produced 0 = nonzero: the equality system is infeasible."""


class DimensionMismatch(GridsecError):
    """Vector/matrix sizes do not line up with the LP being verified."""


class SolverDefect(GridsecError):
    """A solver broke one of its own exact invariants (pivot budget, a row
    past preprocess, integrality, a witness's support or rank): a bug, not
    a property of the input.  The command line exits 4 on it."""


# --- TU minimization / minor enumeration ---

class SizeLimitExceeded(GridsecError):
    """An exhaustive enumeration would exceed its work budget."""


class IntegralityError(SolverDefect):
    """An l1 optimum broke the integrality that total unimodularity guarantees."""


# --- grid model ---

class ParseError(GridsecError):
    """Malformed case file. Carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(GridsecError):
    """Structurally valid file describing an invalid network or measurement set."""


class DisconnectedGraph(ValidationError):
    """The line graph does not connect all buses."""


class UnknownMeterId(ValidationError):
    """A meter references a line or bus that does not exist."""


class RankDeficient(GridsecError):
    """The measurement matrix does not determine the state (WLS undefined)."""


# --- security indices ---

class InfeasibleIndex(GridsecError):
    """No attack satisfying the target/protection constraints exists."""

    def __init__(self, meter, message=None):
        self.meter = meter
        super().__init__(message or f"no feasible attack for meter {meter}")


class HasInjections(GridsecError):
    """Exact reduction requested on a system with injection meters."""


class ProtectedInjection(HasInjections):
    """Bounds requested with a protected injection meter (split bound unsound)."""


class TargetIsInjection(GridsecError):
    """Bounds requested for an injection meter target."""


class ConditionViolated(GridsecError):
    """A rank/nonzero-row precondition for critical-tuple extraction fails."""

    def __init__(self, which, message=None):
        self.which = which
        super().__init__(message or f"condition {which} violated")


# --- oracles ---

class CapExceeded(GridsecError):
    """Exhaustive search exceeded its support-size cap without an answer."""

    def __init__(self, cap, message=None):
        self.cap = cap
        super().__init__(message or f"no feasible support within cap {cap}")


class ZeroColumn(GridsecError):
    """Mutual coherence is undefined when a column is identically zero."""


class TrivialNullspace(GridsecError):
    """The constraint matrix has full row rank: no null-space reformulation."""


# --- CLI ---

class MethodUnavailable(GridsecError):
    """A requested solve method cannot run on this case."""
