"""Exception types shared across the package."""


class CirculantError(Exception):
    """Base class for all library errors."""


# --- permutations and groups ---

class DegreeMismatch(CirculantError):
    pass


class CapExceeded(CirculantError):
    """Group is larger than the enumeration cap."""


# --- graph parsing / serialization ---

class GraphFormatError(CirculantError):
    pass


class MalformedHeader(GraphFormatError):
    pass


class VertexOutOfRange(GraphFormatError):
    pass


class LoopEdge(GraphFormatError):
    pass


class DuplicateEdge(GraphFormatError):
    pass


class BadCharacter(GraphFormatError):
    pass


class TruncatedBits(GraphFormatError):
    pass


# --- structured group parameters ---

class BadParams(CirculantError):
    pass


class DegenerateS(CirculantError):
    """Connection set collapsed to fewer than three elements."""


# --- Cayley construction ---

class IdentityInS(CirculantError):
    pass


class NotInverseClosed(CirculantError):
    pass


class ElementOutsideR(CirculantError):
    pass


class PhiDoesNotPreserveS(CirculantError):
    pass


# --- automorphism analysis ---

class GroupNotAutomorphisms(CirculantError):
    pass


class NotCubic(CirculantError):
    pass


class NotArcTransitive(CirculantError):
    pass


class StabiliserNotOfForm(CirculantError):
    """Vertex-stabiliser order is not 3*2^t with t in [0,4]."""


# --- k-circulant analysis ---

class KDoesNotDivideN(CirculantError):
    pass


class PreconditionViolated(CirculantError):
    pass


# --- quotients ---

class DoesNotPreservePartition(CirculantError):
    pass


class HypothesisViolated(CirculantError):
    def __init__(self, clause: str):
        super().__init__(f"hypothesis violated: {clause}")
        self.clause = clause
