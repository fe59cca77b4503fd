"""2-D constructive geometry with SDFs, sampling, and parameterization."""

from .pointcloud import PointCloud
from .base import Geometry
from .primitives import Rectangle, Channel2D, Circle, Line2D
from .primitives3d import Box, Sphere
from .csg import Union, Intersection, Difference
from .parameterization import ParamSpace, ParameterizedGeometry

__all__ = [
    "PointCloud", "Geometry",
    "Rectangle", "Channel2D", "Circle", "Line2D",
    "Box", "Sphere",
    "Union", "Intersection", "Difference",
    "ParamSpace", "ParameterizedGeometry",
]
