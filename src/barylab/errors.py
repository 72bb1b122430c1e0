"""Exception types shared across the library."""


class BarylabError(Exception):
    """Base class for all library errors."""


class SpaceMismatch(BarylabError):
    """Points passed to an operation live in different spaces."""


class GeometryError(BarylabError):
    """Base class for geometric precondition failures."""


class DegenerateTriangle(GeometryError):
    """A comparison angle was requested with a zero adjacent side."""


class InvalidTriangle(GeometryError):
    """Side lengths violate the triangle inequality beyond noise tolerance."""


class PerimeterTooLarge(GeometryError):
    """Triangle perimeter is >= 2 * model diameter for the requested bound."""


class CutLocus(GeometryError):
    """Log map requested at or beyond the cut locus of the base point."""


class AntipodalPoints(CutLocus):
    """No unique geodesic: the endpoints are (numerically) antipodal."""


class OutOfDomain(GeometryError):
    """Exponential map evaluated outside its domain of validity."""


class NotPositiveDefinite(BarylabError):
    """A matrix required to be SPD has an eigenvalue below the floor."""


class CoincidentPoints(BarylabError):
    """Two points required to be distinct coincide numerically."""


class CutLocusDuringIteration(BarylabError):
    """A solver iterate left the domain where all log maps are defined."""


class BadLambda(BarylabError):
    """Extension factor outside the domain of the bound formula."""


class BadBounds(BarylabError):
    """Convexity/smoothness bounds with beta < alpha."""


class BadFamilyParams(BarylabError):
    """Sampling family parameters violate the family's constraints."""


class AnchorNotBarycenter(BarylabError):
    """Verification pass rejected the family anchor as population barycenter."""


class HypothesisViolated(BarylabError):
    """An experiment refused to run because a theorem hypothesis fails."""


class DiscardRateExceeded(BarylabError):
    """Too many Monte Carlo trials were discarded for non-convergence."""


class PlotError(BarylabError):
    """Values that the requested chart cannot draw."""


class OutputError(BarylabError):
    """An output cannot be written: its directory cannot be created, or a value
    has no strict JSON form."""


class ConfigError(BarylabError):
    """Base class for configuration file errors."""


class ParseError(ConfigError):
    """Config file is not valid JSON."""


class ValidationError(ConfigError):
    """Config parsed but violates the schema; carries every violation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
