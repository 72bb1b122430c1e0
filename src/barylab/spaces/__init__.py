"""Concrete geodesic model spaces and shared space machinery."""

from .base import Extendibility, Space, componentwise_inf
from .curved import Hyperboloid, Sphere
from .euclidean import Euclidean
from .gaussian import BuresWasserstein, GaussianPoint
from .quantile import QuantileSpace

# the space classes by the ``kind`` that names them in a config
SPACE_KINDS = {cls.tag: cls for cls in (Euclidean, Sphere, Hyperboloid, QuantileSpace,
                                         BuresWasserstein)}


def point_from_payload(obj: dict):
    """Reconstruct (space, point) from a tagged JSON payload."""
    tag = obj.get("space")
    if tag == Euclidean.tag:
        space = Euclidean(len(obj["coords"]))
    elif tag == Sphere.tag:
        space = Sphere(len(obj["coords"]) - 1)
    elif tag == Hyperboloid.tag:
        space = Hyperboloid(len(obj["coords"]) - 1)
    elif tag == QuantileSpace.tag:
        space = QuantileSpace(len(obj["values"]))
    elif tag == BuresWasserstein.tag:
        space = BuresWasserstein(len(obj["mean"]))
    else:
        raise ValueError(f"unknown space tag {tag!r}")
    return space, space.point_from_payload(obj)
