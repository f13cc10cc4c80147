"""Training paradigms the paper compares against (Sections 2.3 and 6).

* :class:`BackpropTrainer` -- vanilla BP, the primary baseline.
* :class:`LocalLearningTrainer` -- classic LL with 256-filter aux heads.
* :class:`FeedbackAlignmentTrainer` -- FA (Figure 3 quadrant).
* :class:`SignalPropagationTrainer` -- SP (Figure 3 quadrant).
* :class:`GradientCheckpointTrainer` -- checkpointed BP (Section 7).
* :class:`MicrobatchTrainer` -- gradient accumulation (Section 7).

All six run on one frame, :meth:`repro.training.common.BaselineTrainer.train`
(batch sized to the budget, epochs, per-step charge, evaluation).  A new
baseline subclasses it and supplies ``method``, its ``gpu_tag`` /
``rng_tag``, ``memory_at_batch``, ``step_price`` and ``step``, and joins
:data:`BASELINE_TRAINERS` to be runnable as ``repro run --backend
baseline``.

NeuroFlux itself lives in :mod:`repro.core`.
"""

from repro.training.backprop import BackpropTrainer, max_feasible_batch
from repro.training.checkpointing import GradientCheckpointTrainer
from repro.training.common import (
    BaselineTrainer,
    HistoryPoint,
    TrainResult,
    evaluate_classifier,
)
from repro.training.feedback_alignment import FeedbackAlignmentTrainer
from repro.training.local import LocalLearningTrainer
from repro.training.microbatch import MicrobatchTrainer
from repro.training.signal_prop import SignalPropagationTrainer

#: The comparison methods by the short name a JobSpec's ``baseline.method``
#: selects them with (the ``baseline`` backend of :mod:`repro.api`).
BASELINE_TRAINERS: dict[str, type[BaselineTrainer]] = {
    "bp": BackpropTrainer,
    "fa": FeedbackAlignmentTrainer,
    "ll": LocalLearningTrainer,
    "sp": SignalPropagationTrainer,
    "checkpoint": GradientCheckpointTrainer,
    "microbatch": MicrobatchTrainer,
}

__all__ = [
    "BASELINE_TRAINERS",
    "BackpropTrainer",
    "BaselineTrainer",
    "FeedbackAlignmentTrainer",
    "GradientCheckpointTrainer",
    "HistoryPoint",
    "LocalLearningTrainer",
    "MicrobatchTrainer",
    "SignalPropagationTrainer",
    "TrainResult",
    "evaluate_classifier",
    "max_feasible_batch",
]
