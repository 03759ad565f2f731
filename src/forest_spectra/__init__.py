"""Exact Hessian spectra of forest generating functions, their counting
bijections, and strong Lefschetz checks for truncated graphic matroids.

Each module's ``__all__`` is its public surface; the package exports their
union, bound to the same objects."""

from . import errors, graphs, forests, linalg, polynomials, matroids, spectra, bijections, lefschetz
from .errors import *
from .graphs import *
from .forests import *
from .linalg import *
from .polynomials import *
from .matroids import *
from .spectra import *
from .bijections import *
from .lefschetz import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += errors.__all__
__all__ += graphs.__all__
__all__ += forests.__all__
__all__ += linalg.__all__
__all__ += polynomials.__all__
__all__ += matroids.__all__
__all__ += spectra.__all__
__all__ += bijections.__all__
__all__ += lefschetz.__all__
