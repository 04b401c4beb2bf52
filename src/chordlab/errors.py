"""Exception hierarchy shared by all chordlab modules.

Every structured rejection raised by a validator or an operation derives
from ChordLabError, so callers (and the CLI) can distinguish domain errors
from genuine bugs.
"""


class ChordLabError(Exception):
    """Base class for all domain errors."""


# -- fat graph validation ---------------------------------------------------

class FixedPointInPairing(ChordLabError):
    """The half-edge pairing has a fixed point (an edge with one side)."""


class ValenceTooLow(ChordLabError):
    """A vertex has fewer than three half-edges."""


class Disconnected(ChordLabError):
    """The graph is not connected."""


class InconsistentTables(ChordLabError):
    """Pairing table and vertex lists do not describe the same half-edge set."""


class NonIntegerGenus(ChordLabError):
    """2 - chi - n is odd; unreachable for structurally valid input."""


# -- chord diagram validation ----------------------------------------------

class GhostCycle(ChordLabError):
    """The ghost subgraph contains a cycle (it must be a forest)."""


class CircleNotDisjoint(ChordLabError):
    """Circular edges do not decompose into disjoint simple cycles."""


class IncomingNotBoundaryCycle(ChordLabError):
    """A designated incoming circle is not a boundary cycle of the graph."""


class BadMarking(ChordLabError):
    """A marking is not a circular half-edge occurrence on its cycle."""


# -- moves on chord diagrams -------------------------------------------------

class EssentialEdge(ChordLabError):
    """Attempt to collapse an edge that no morphism may collapse."""


class LoopEdge(ChordLabError):
    """Attempt to collapse a loop."""


class UnrepresentableType(ChordLabError):
    """No chord diagram with trivalent-or-better vertices has this type."""


# -- gluing ------------------------------------------------------------------

class ArityMismatch(ChordLabError):
    """Outgoing count of the first diagram differs from incoming count of the second."""


class InvalidSchedule(ChordLabError):
    """A gluing schedule does not respect cyclic order or names unknown vertices."""


class GlueValidationFailed(ChordLabError):
    """The glued object violates a chord-diagram invariant."""


# -- search ------------------------------------------------------------------

class BoundTooSmall(ChordLabError):
    """The edge bound is below the size of the base-point diagram."""


class SearchExhausted(ChordLabError):
    """A move-graph search hit its limit: a search, path_to_canonical's
    tree from the base point among them, or the enumerator outgrew its
    class budget, or the enumerator met a block with too many rotation
    choices.  frontier_size is the number of classes the search had
    reached but not expanded."""

    def __init__(self, message, frontier_size=0):
        super().__init__(message)
        self.frontier_size = frontier_size


# -- TQFT --------------------------------------------------------------------

class NoOutgoing(ChordLabError):
    """Requested an operation with q = 0 outgoing boundaries.

    Positive-boundary field theories only define operations for surfaces
    each of whose components has at least one outgoing boundary circle;
    the would-be counit (disk with no output) does not exist here.
    """
