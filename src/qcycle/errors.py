"""Error types raised across the package.

Every domain error derives from QcycleError so callers (and the CLI) can
distinguish library failures from programming mistakes.
"""


class QcycleError(Exception):
    """Base class for all library errors."""


# -- series --------------------------------------------------------------

class SeriesError(QcycleError):
    pass


class ZeroConstantTerm(SeriesError):
    """Multiplicative inverse needs a nonzero constant term."""


class NonzeroConstantTerm(SeriesError):
    """Composition h(s) needs s to have zero constant term."""


class NotInvertible(SeriesError):
    """Compositional inverse needs a nonzero linear coefficient."""


class ConstantTermNotOne(SeriesError):
    """Binomial powers b**alpha need b(0) = 1."""


class IndexOutOfTruncation(SeriesError):
    """Requested coefficient lies at or beyond the truncation order."""


class ExactDivisionError(SeriesError):
    """divide_exact needs ord(b) <= ord(a) and a nonzero lowest coefficient."""


# -- tensors and structures ----------------------------------------------

class TensorError(QcycleError):
    pass


class NotComultiplicative(TensorError):
    """Operation requires a tensor that is a coalgebra morphism."""


class ZeroLambda(TensorError):
    """Rescaling requires a nonzero scalar."""


class BadLinearTerm(TensorError):
    """Series must start x + O(x^2) for this reconstruction."""


class ReconstructionError(TensorError):
    """A reconstruction failed on its input.

    Kept as public API; nothing raises it."""


# -- solutions -----------------------------------------------------------

class SolutionError(QcycleError):
    pass


class SingularGp(SolutionError):
    """The map a (x) b -> a.b_(1) (x) b_(2) is not invertible."""


class SingularGd(SolutionError):
    """The map a (x) b -> (a:b_(2)) (x) b_(1) is not invertible."""


# -- operator calculus ----------------------------------------------------

class OperatorError(QcycleError):
    pass


class DegreeOutOfRange(OperatorError):
    """Operator degree must stay below the truncation order."""


class InvariantViolation(OperatorError):
    """A defining identity of the operator context failed at build time."""


# -- families / classification --------------------------------------------

class FamilyError(QcycleError):
    pass


class RootOfUnityLambda(FamilyError):
    """lambda_1 must not be a root of unity of order below n."""


class PreconditionNotMet(FamilyError):
    """Structure does not satisfy the hypotheses of the requested check."""


class UnverifiedStructure(FamilyError):
    """Classification requires a structure that passes the braid checks."""


# -- CLI -------------------------------------------------------------------

class ParseError(QcycleError):
    """Malformed rational, list, or JSON input."""


class ValidationError(QcycleError):
    """Command arguments violate the per-command requirements."""
