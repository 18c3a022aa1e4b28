"""Factor-adjusted multiple testing under arbitrary correlation.

Decomposes correlated normal test statistics into a small number of
principal factors plus weakly dependent noise, estimates the realized
factor values by least-absolute-deviation regression, and turns the
decomposition into consistent estimates of the false discovery proportion
and an approximate-FDR threshold rule.
"""

__version__ = "0.3.0"

# Each module's __all__ is its public API; the package re-exports all of them.
from . import factors, fdr, gauss, lad, linalg, simulate
from .factors import *  # noqa: F401,F403
from .fdr import *  # noqa: F401,F403
from .gauss import *  # noqa: F401,F403
from .lad import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *linalg.__all__,
    *gauss.__all__,
    *factors.__all__,
    *lad.__all__,
    *fdr.__all__,
    *simulate.__all__,
]
