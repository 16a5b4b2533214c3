"""Exception types shared across the toolkit.

Every failure mode that callers are expected to handle gets its own class;
all inherit from MatroidlabError so `except MatroidlabError` catches any
domain error without swallowing programming bugs.
"""


class MatroidlabError(Exception):
    pass


class BadSize(MatroidlabError):
    """Matrix/vector dimensions do not match the operation."""


class SingularBasis(MatroidlabError):
    """Requested pivot columns are linearly dependent."""


class Overbudget(MatroidlabError):
    """An enumeration exceeded its configured cap."""


class DuplicateLabels(MatroidlabError):
    """Ground-set labels are not pairwise distinct."""


class BadRank(MatroidlabError):
    """Rank parameter outside [0, n]."""


class NotBasisElement(MatroidlabError):
    """Element expected to lie in the given basis does not."""


class NotCobasisElement(MatroidlabError):
    """Element expected to lie outside the given basis does not."""


class BadOverlap(MatroidlabError):
    """Ground sets of parallel-connection operands overlap incorrectly."""


class NotRegular(MatroidlabError):
    """No representation usable for signing over the requested field."""


class DegenerateElement(MatroidlabError):
    """Operation requires a non-loop, non-coloop element."""


class NotArtinian(MatroidlabError):
    """Quotient ring is not finite-dimensional."""


class NoCocircuitPair(MatroidlabError):
    """The last element and the last cobasis element are not a cocircuit,
    so the deletion-contraction split does not apply."""


class BadParams(MatroidlabError):
    """Construction parameters violate the documented preconditions."""


class UnknownName(MatroidlabError):
    """No fixture with the requested name."""


class NotStandardOrdering(MatroidlabError):
    """The last rank(M) elements of the ordering are not a basis."""
