"""Rotation-equivariant arbitrary-scale image super-resolution.

Group-equivariant convolutions with bicubic filter parametrization,
rotation-equivariant implicit-neural-representation layers (LIIF / OPE /
LTE variants), and a verification harness for equivariance-error claims.
"""

__version__ = "0.1.0"

from .errors import EquisrError  # noqa: F401
from .image import Image  # noqa: F401
from .groups import (  # noqa: F401
    RotationGroup,
    make_group,
    rotate_feature,
    rotate_image,
)
