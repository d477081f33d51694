"""Monte Carlo benchmarks for drift estimation of an Ornstein-Uhlenbeck process.

Library layout:

* `ou_core`: exact AR(1) simulation of the observed and stationary processes,
  including coupled (X, Z) pairs driven by one innovation stream.
* `estimators`: the moment-based (AMCE) and likelihood-based (AMLE) drift
  estimators, the second-chaos statistic F_n, and the martingale term Lambda_n.
* `oracles`: exact closed-form moments and cumulants of F_n(Z) and Lambda_n,
  plus the first-order values they are usually replaced with.
* `metrics`: exact Wasserstein-1 and Kolmogorov distances to N(0, 1), sample
  cumulants with jackknife standard errors, bootstrap distance reports.
* `harness`: schedules, per-cell Monte Carlo summaries with oracle gating,
  the coupling check, log-log rate fits.
* `cli`: the `ou-bench` command (simulate | estimate | oracle | verify | rates).

The package exports every name in the `__all__` of errors, ou_core,
estimators, oracles, metrics and harness; each module declares its own.
"""

from . import errors, estimators, harness, metrics, oracles, ou_core
from .errors import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .oracles import *  # noqa: F401,F403
from .ou_core import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *ou_core.__all__,
    *estimators.__all__,
    *oracles.__all__,
    *metrics.__all__,
    *harness.__all__,
]
