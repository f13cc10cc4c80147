"""Feedback Alignment baseline (Figure 3 quadrant).

FA replaces the transposed forward weights in the backward pass with fixed
random matrices, breaking the weight-transport symmetry [Lillicrap et al.
2016].  Memory behaviour is identical to BP (all activations retained);
accuracy is known to lag BP on CNNs [Kohan et al. 2023], which is what the
paradigm-comparison benchmark demonstrates.
"""

from __future__ import annotations

from repro.nn.conv import Conv2d, DepthwiseConv2d
from repro.nn.linear import Linear
from repro.training.backprop import BackpropTrainer
from repro.utils.rng import spawn_rng


class FeedbackAlignmentTrainer(BackpropTrainer):
    """BP loop with fixed random feedback weights on conv/linear layers."""

    method = "feedback-alignment"

    def _setup(self) -> None:
        super()._setup()
        rng = spawn_rng(self.seed, "fa/feedback")
        for module in self.model.modules():
            if isinstance(module, (Conv2d, Linear)):
                module.enable_feedback_alignment(rng)
            elif isinstance(module, DepthwiseConv2d):
                # Depthwise convs keep exact backward; FA's weight-transport
                # substitution is defined for dense weight matrices.
                continue
