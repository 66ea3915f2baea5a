"""Exception types shared across the package."""


class TransversalsError(Exception):
    """Base class for all package errors."""


class InvalidHypergraph(TransversalsError):
    """Edge set violates the k-uniform / vertex-range invariants."""


class InvalidInput(TransversalsError):
    """Arguments outside an operation's documented domain."""


class StartEndMismatch(TransversalsError):
    """The first-l and last-l windows of a link body are not order-isomorphic."""


class DivisibilityError(TransversalsError):
    """Cycle size is incompatible with the link geometry."""


class TooShort(TransversalsError):
    """Chain too short to close into a cycle without collapsing a window."""


class ColourCountMismatch(TransversalsError):
    """Collection size differs from the edge count of the target structure."""


class InfeasibleDegrees(TransversalsError):
    """A left vertex of the availability graph cannot support the absorber."""


class SearchExhausted(TransversalsError):
    """A search used its node budget before it could answer either way."""


class NoCopyFound(TransversalsError):
    """No uncoloured copy of the template exists in the threshold hypergraph."""


class AbsorberFailed(TransversalsError):
    """Randomised absorber construction did not verify within the retry budget."""


class SizesMismatch(TransversalsError):
    """Requested partition sizes do not sum to the vertex count."""


class PartitionFailed(TransversalsError):
    """No sampled partition passed the degree audit within the retry budget."""


class Unachievable(TransversalsError):
    """Requested degree floor exceeds what the parameters allow."""
