"""Exception hierarchy shared by all radmesh modules."""


class RadmeshError(Exception):
    """Base class for all domain errors raised by this package."""


class CollinearCenters(RadmeshError):
    """Three ball centers are collinear; the dual-vertex system is singular."""


class CollinearPoints(RadmeshError):
    """Three points are collinear; no circumcenter exists."""


class TooFewBalls(RadmeshError):
    """Fewer than three alive balls; no triangulation can be built."""


class TooFewPoints(RadmeshError):
    """Fewer than three input points for sphere recovery."""


class AllCollinear(RadmeshError):
    """All input sites are collinear; the problem is degenerate."""


class FlipBudgetExhausted(RadmeshError):
    """Lawson flipping ran out of its flip budget; the result may be illegal."""


class UnboundedCell(RadmeshError):
    """Operation requires a bounded power cell."""


class DegenerateCell(RadmeshError):
    """Power cell has collapsed (all vertices coincide within tolerance)."""


class ZeroArea(RadmeshError):
    """Auxiliary triangulation has zero total area."""


class TopologyFlip(RadmeshError):
    """Diagram combinatorics changed inside the finite-difference stencil."""


class Diverged(RadmeshError):
    """Optimization is diverging (sustained growth of the functional)."""


class DegenerateScene(RadmeshError):
    """Scene degenerated during optimization (no usable cells left)."""


class InconsistentGeometry(RadmeshError):
    """Scene generator parameters are mutually inconsistent."""


class ParseError(RadmeshError):
    """Scene file could not be parsed; message names the offending field."""
