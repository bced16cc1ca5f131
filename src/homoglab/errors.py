"""Exception types shared across the package."""


class HomoglabError(Exception):
    """Base class for all package-specific errors."""


class StarNumberZero(HomoglabError):
    """Raised when a directory-based operation is applied to an edgeless graph.

    Directories are only defined for graphs whose star number is at least 1.
    """


class NotADirectoryBase(HomoglabError):
    """Raised when a vertex set is not an independent dominating set."""


class Undominated(HomoglabError):
    """A vertex that cannot be dominated from the given index set.

    The package no longer raises it: every operation that takes an index
    set rejects one that does not dominate with NotADirectoryBase first.
    The name stays importable for code written against earlier releases.
    """


class OrderTooLarge(HomoglabError):
    """Raised when a graph exceeds the exact-search order limit of an operation."""


class SeedNotLocalMorphism(HomoglabError):
    """Raised when a partial map is not a local morphism of the required kind."""


class BadParams(HomoglabError):
    """Raised for invalid presentation family or construction parameters."""


class InternalInvariant(HomoglabError):
    """Raised when a result fails an internal check: a package fault, not bad input."""


class FormatError(HomoglabError):
    """Raised for malformed graph6 or edge-list input."""


class BudgetExhausted(HomoglabError):
    """Raised when a spanning construction cannot satisfy a requirement.

    Attributes:
        requirement: the (cone_over, cocone_over) requirement that failed.
        detail: whether the witness search was refuted or merely ran out of
            budget.
    """

    def __init__(self, requirement, detail):
        self.requirement = requirement
        self.detail = detail
        super().__init__(f"requirement {requirement} unsatisfiable: {detail}")
