"""Numerical certification and stress tests of explicit stability bounds for
Fourier phase retrieval on discretized functions over uniform grids."""

from . import bounds, geometry, grid, experiments, io
from .bounds import *
from .geometry import *
from .grid import *
from .experiments import *
from .io import *

__version__ = "0.1.0"

__all__ = bounds.__all__ + geometry.__all__ + grid.__all__ + experiments.__all__ + io.__all__
