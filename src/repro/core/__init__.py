"""ADAPT: the paper's contribution.

Three mechanisms compose the policy (:class:`~repro.core.policy.AdaptPolicy`):

* density-aware threshold adaptation (§3.2) — :mod:`repro.core.sampling`,
  :mod:`repro.core.distance`, :mod:`repro.core.ghost`,
  :mod:`repro.core.threshold`;
* cross-group dynamic aggregation (§3.3) — :mod:`repro.core.aggregation`;
* proactive demotion placement (§3.4) — :mod:`repro.core.demotion`.
"""

from repro.core.config import AdaptConfig
from repro.core.policy import AdaptPolicy

__all__ = ["AdaptConfig", "AdaptPolicy"]
