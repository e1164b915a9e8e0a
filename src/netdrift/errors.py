"""Exception types shared across the package.

Validation errors carry enough context to name the offending object; the
CLI maps them onto exit codes, the library just raises them.  `Undecided`
ones mean the analysis cannot decide, not that the input is wrong.
"""


class NetdriftError(Exception):
    """Base class for every error raised by this package."""


class Undecided(NetdriftError):
    """The analysis cannot decide: a verdict would be Inconclusive."""


# --- input primitives ----------------------------------------------------

class DimensionMismatch(NetdriftError):
    pass


class NegativeRate(NetdriftError):
    pass


class RowSumNonzero(NetdriftError):
    pass


class ReducibleGenerator(NetdriftError):
    pass


class SingularSolve(NetdriftError):
    pass


class NegativeProbability(NetdriftError):
    pass


class BetaSumNotOne(NetdriftError):
    pass


class InvalidSubgenerator(NetdriftError):
    pass


class SingularH(NetdriftError):
    pass


# --- service mechanisms --------------------------------------------------

class InvalidK(NetdriftError):
    pass


class GeneratorRowSumNonzero(NetdriftError):
    pass


class NonStochasticU(NetdriftError):
    pass


class NegativeOffDiagonal(NetdriftError):
    pass


# --- induced chains and drifts -------------------------------------------

class EmptySubset(Undecided):
    pass


class UnsupportedSubset(Undecided):
    pass


class NotConverged(Undecided):
    pass


class ClosedFormUnavailable(Undecided):
    pass


class AssumptionViolated(Undecided):
    pass


# --- stability classification --------------------------------------------

class SignConditionViolated(Undecided):
    pass


class CertificateNotFound(Undecided):
    pass


# --- simulation ----------------------------------------------------------

class InsufficientData(Undecided):
    pass


# --- model files / CLI ---------------------------------------------------

class BadParameterPath(NetdriftError):
    pass


class ModelFileError(NetdriftError):
    """Validation failure tied to a location in a model file.

    `path` is a dotted locator such as "services.2.beta".
    """

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class ModelParseError(NetdriftError):
    """The model file is not syntactically readable (bad JSON, wrong types)."""
