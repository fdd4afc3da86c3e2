"""Exception types shared across the toolkit."""


class PfaffincError(Exception):
    """Base class for all toolkit errors."""


class EmptyTrace(PfaffincError):
    """The curve does not enter the requested viewport."""


class SingularMatrix(PfaffincError):
    """Linear transform matrix is singular (|det| below tolerance)."""


class NotComposable(PfaffincError):
    """Curve is not a graph whose derivative closes over its own values."""


class DomainViolation(PfaffincError):
    """A sample point left the open domain of definition."""


class NotUnivariateForm(PfaffincError):
    """Function is not of the shape y - h(x)."""


class SharedComponent(PfaffincError):
    """Two curves overlap along an interval; intersection count undefined."""


class CuttingFailed(PfaffincError):
    """No certified cutting found within the retry budget."""


class ComplexityGuard(PfaffincError):
    """Brute-force subgraph search would exceed the work limit."""


class InconsistentScene(PfaffincError):
    """A cutting was built for a different curve set."""


class DegenerateDual(PfaffincError):
    """All family terms vanish at the point; the dual hyperplane is undefined."""


class RotationFailed(PfaffincError):
    """No generic rotation found within the draw budget."""


class ChainMismatch(PfaffincError):
    """The primal, dual, and projected incidence counts disagree."""


class DuplicateCurve(PfaffincError):
    """Two curves in one scene have proportional coefficient vectors."""
