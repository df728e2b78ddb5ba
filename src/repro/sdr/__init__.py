"""Software-defined radio substrate."""

from .frontend import downconvert
from .rtlsdr import RtlSdrV3

__all__ = ["RtlSdrV3", "downconvert"]
