"""Core simulation machinery.

Virtual time, the back-of-the-envelope lifetime estimator the paper
argues against (§2.3), and the wear-out experiment runner that produces
the per-increment rows behind Figure 2, Table 1, and Figures 3–4.
"""

from repro.core.clock import SimClock
from repro.core.estimator import BackOfEnvelopeEstimate, estimate_lifetime
from repro.core.results import IncrementRecord, WearOutResult
from repro.core.experiment import WearOutExperiment
from repro.core.tracing import IoEvent, IoTrace, TracingDevice, replay

__all__ = [
    "SimClock",
    "BackOfEnvelopeEstimate",
    "estimate_lifetime",
    "IncrementRecord",
    "WearOutResult",
    "WearOutExperiment",
    "IoEvent",
    "IoTrace",
    "TracingDevice",
    "replay",
]
