"""Exception hierarchy shared by all xmhopf modules."""


class XmhopfError(Exception):
    """Base class for all errors raised by this package."""


class MixedFieldsError(XmhopfError):
    """Operands live over different ground fields."""


class DivisionByZeroError(XmhopfError):
    """Division or inversion of the zero scalar."""


class ShapeMismatchError(XmhopfError):
    """Matrix or tensor shapes do not compose."""


class NonComposableError(XmhopfError):
    """Arrows or graded homs whose endpoints do not match."""


class NotNormalError(XmhopfError):
    """A conjugate escapes the image of the embedding."""


class MissingAntipodeError(XmhopfError):
    """Operation needs an antipode that has not been computed."""


class NotGrouplikeError(XmhopfError):
    """Candidate family fails the grouplike conditions."""


class NotPivotalError(XmhopfError):
    """Grouplike family is not pivotal."""


class NotHomogeneousError(XmhopfError):
    """Module is not concentrated in a single degree."""


class NotIntegralError(XmhopfError):
    """Covector family fails the integral conditions."""


class NotInvertibleError(XmhopfError):
    """A structure map expected to be invertible is singular."""


class DefiningIdentityFailedError(XmhopfError):
    """A computed element fails its defining identity (invalid input)."""


class SearchBudgetError(XmhopfError):
    """A search visited more candidates than its budget allows."""
