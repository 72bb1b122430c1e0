"""Concrete geodesic model spaces and shared space machinery."""

from .base import Extendibility, Space
from .curved import Hyperboloid, Sphere
from .euclidean import Euclidean
from .gaussian import BuresWasserstein, GaussianPoint
from .quantile import QuantileSpace

# the space classes by the ``kind`` that names them in a config
SPACE_KINDS = {cls.tag: cls for cls in (Euclidean, Sphere, Hyperboloid, QuantileSpace,
                                         BuresWasserstein)}


def point_from_payload(obj: dict):
    """Reconstruct (space, point) from a tagged JSON payload; ValueError for
    a payload that is not an object, or of an unknown tag, or that its
    space's ``payload_array`` refuses."""
    if not isinstance(obj, dict):
        raise ValueError(f"a point payload must be an object, got {obj!r}")
    tag = obj.get("space")
    # a JSON list or object as the tag is unhashable
    if not isinstance(tag, str) or tag not in SPACE_KINDS:
        raise ValueError(f"unknown space tag {tag!r}")
    space = SPACE_KINDS[tag].payload_space(obj)
    return space, space.point_from_payload(obj)
