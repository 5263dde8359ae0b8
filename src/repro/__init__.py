"""FedProphet reproduction (MLSys 2025, Tang et al.).

Memory-efficient federated adversarial training via robust and consistent
cascade learning — rebuilt from scratch on a NumPy deep-learning substrate
plus an analytic edge-hardware simulator.  See docs/architecture.md for the
system inventory and ``benchmarks/bench_*.py`` for the paper's tables
and figures.

Public entry points:

* :class:`repro.core.FedProphet` / :class:`repro.core.FedProphetConfig`
* baselines in :mod:`repro.baselines` (jFAT, HeteroFL-AT, FedDrop-AT,
  FedRolex-AT, FedDF-AT, FedET-AT, FedRBN)
* datasets in :mod:`repro.data`, models in :mod:`repro.models`,
  hardware simulation in :mod:`repro.hardware`.
"""

__version__ = "1.0.0"

from repro.core import FedProphet, FedProphetConfig
from repro.flsim import FLConfig

__all__ = ["FedProphet", "FedProphetConfig", "FLConfig", "__version__"]
