"""Exception hierarchy shared by all modules."""


class CrdError(Exception):
    """Base class for all library errors."""


# --- projective core ---------------------------------------------------------

class DegenerateQuadruple(CrdError):
    pass


class CoincidentAxisPoints(CrdError):
    pass


class ZeroParameter(CrdError):
    pass


class SingularMatrix(CrdError):
    pass


# --- polygons and charts -----------------------------------------------------

class DegeneratePolygon(CrdError):
    pass


class DegenerateCoordinates(CrdError):
    pass


class ChartDomainViolation(CrdError):
    pass


class EvenNForAChart(ChartDomainViolation):
    pass


class EvenN(CrdError):
    pass


class OddN(CrdError):
    pass


# --- continuants -------------------------------------------------------------

class WindowOrderViolation(CrdError):
    pass


class WindowTooLarge(CrdError):
    pass


class KOutOfRange(CrdError):
    pass


class ZeroCoordinate(CrdError):
    pass


# --- integrals ---------------------------------------------------------------

class InfiniteVertex(CrdError):
    pass


class InfiniteVertexForIJK(InfiniteVertex):
    pass


class ScalarAxisMatrix(CrdError):
    pass


# --- dynamics ----------------------------------------------------------------

class ForbiddenAlpha(CrdError):
    pass


class OrbitTerminated(CrdError):
    pass


class RealFieldNoFixedPoints(OrbitTerminated):
    pass


class InputsNotRelated(CrdError):
    pass


class EqualAlphaBeta(CrdError):
    pass


class NoRealFixedPoint(CrdError):
    pass


class BranchDiscontinuity(CrdError):
    pass


class NoOrbitReadyPolygon(CrdError):
    pass


# --- poisson -----------------------------------------------------------------

class DenominatorVanishes(CrdError):
    pass


# --- special polygons --------------------------------------------------------

class ExcludedLabelValue(CrdError):
    pass


class DegenerateTetrahedron(CrdError):
    pass


class DegenerateV0(CrdError):
    pass


class PoleBeta(CrdError):
    pass


class NoConvergence(CrdError):
    pass


class TrivialityViolation(CrdError):
    pass


# --- cli ---------------------------------------------------------------------

class ParseError(CrdError):
    pass
