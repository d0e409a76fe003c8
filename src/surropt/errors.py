"""Exception types shared across the package."""


class SurroptError(Exception):
    """Base class for all package errors."""


class UnboundedVariable(SurroptError):
    """A variable needed finite bounds but none could be inferred."""


class InfeasibleProblem(SurroptError):
    """The linear constraint system admits no point."""


class TimeLimitReached(SurroptError):
    """The run's deadline passed before an evaluation the run still needed."""


class EvaluationError(SurroptError):
    """A constraint or objective evaluator failed at a point."""


class DomainError(EvaluationError):
    """Evaluation outside the mathematical domain (log of nonpositive, etc.)."""


class ParseError(SurroptError):
    """Problem text could not be parsed. Carries a byte offset."""

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (at offset {offset})")
        self.offset = offset


class ExprSyntaxError(ParseError):
    """Malformed expression text."""


class UnknownIdentifier(ParseError):
    """Expression references a name that was never declared."""


class SchemaError(SurroptError):
    """Problem document does not match the expected schema."""


class DegenerateDataset(SurroptError):
    """Dataset cannot support the requested training (single label, too few rows, ...)."""


class EmptyPolyhedron(SurroptError):
    """Polyhedron has no interior point."""


class UnsupportedNorm(SurroptError):
    """Requested dual norm cannot be linearized by the built-in solver."""


class NumericalFailure(SurroptError):
    """LP pivoting exceeded its budget without converging."""


class ProjectionStall(SurroptError):
    """Projection onto the linear rows and the box found no feasible point."""


class InfeasibleApproximation(SurroptError):
    """Every grid cell was infeasible even after relaxation."""


class SolverError(SurroptError):
    """No grid cell was solved and the MILP solver failed on at least one."""
