"""ARIMA modeling with iterative additive-outlier detection and correction.

The package exports the ``__all__`` of each of its modules below.
"""

from . import diagnostics, errors, estimation, outliers, series
from . import simulate as _simulate  # the function of the same name replaces the module below
from .diagnostics import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .estimation import *  # noqa: F401,F403
from .outliers import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (diagnostics, errors, estimation, outliers, series, _simulate)
           for name in module.__all__]
