"""Early-exit output model selection (architecture step 4, Section 5.4).

After training, every layer's auxiliary head is a prospective exit point.
NeuroFlux picks the exit with the highest validation accuracy while
maintaining the smallest parameter count: among exits within ``tolerance``
of the best accuracy (accuracy saturates with depth -- 'overthinking'),
the shallowest/cheapest one wins.  The resulting model is the streamlined
CNN the paper reports in Table 2 (10.9x-29.4x fewer parameters): a
:class:`MultiExitModel` with that one exit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.nn.functional import softmax
from repro.nn.module import Module

#: Accuracy slack within which a cheaper exit beats the most accurate one.
EXIT_TOLERANCE = 0.02


@dataclass(frozen=True)
class ExitCandidate:
    """One prospective exit: a layer index with its accuracy and size."""

    layer_index: int
    val_accuracy: float
    num_parameters: int


def select_exit(
    candidates: list[ExitCandidate], tolerance: float = EXIT_TOLERANCE
) -> ExitCandidate:
    """Best-accuracy exit, tie-broken toward the fewest parameters.

    ``tolerance`` is the accuracy slack within which a smaller exit is
    preferred over the absolute best (paper: accuracy 'remains consistent
    or decreases only trivially' past the saturation layer).
    """
    if not candidates:
        raise ConfigError("no exit candidates")
    if tolerance < 0:
        raise ConfigError("tolerance must be non-negative")
    best_acc = max(c.val_accuracy for c in candidates)
    feasible = [c for c in candidates if c.val_accuracy >= best_acc - tolerance]
    return min(feasible, key=lambda c: (c.num_parameters, c.layer_index))


class MultiExitModel(Module):
    """Deployable model with several confidence-gated exits.

    Every trained auxiliary head is a viable exit point; a cascade runs
    the stage chain up to the shallowest exit, and only samples whose
    softmax confidence falls below a threshold continue to deeper exits
    (see :mod:`repro.serving.cascade`).  ``stages`` covers layers up to
    the deepest exit; ``exit_layers`` are increasing stage indices, each
    paired with its auxiliary head in ``exit_heads``.  With one exit it is
    the deployed early-exit model (``NeuroFlux.build_exit_model``).
    """

    def __init__(
        self,
        stages: list[Module],
        exit_layers: list[int],
        exit_heads: list[Module],
        name: str,
    ):
        super().__init__()
        if not stages:
            raise ConfigError("a multi-exit model needs at least one stage")
        if not exit_layers:
            raise ConfigError("a multi-exit model needs at least one exit")
        if len(exit_layers) != len(exit_heads):
            raise ConfigError("exit_layers and exit_heads must align")
        if list(exit_layers) != sorted(set(exit_layers)):
            raise ConfigError("exit_layers must be strictly increasing")
        if exit_layers[-1] != len(stages) - 1:
            raise ConfigError("deepest exit must sit at the last stage")
        self.stages = list(stages)
        self.exit_layers = list(exit_layers)
        self.exit_heads = list(exit_heads)
        self.name = name
        self.eval()

    @property
    def num_exits(self) -> int:
        return len(self.exit_layers)

    def segment_stages(self, exit_index: int) -> list[Module]:
        """Stages run *incrementally* to reach exit ``exit_index``.

        Segment 0 spans the input up to the shallowest exit layer; segment
        ``i`` spans from just past exit ``i-1`` to exit ``i``.
        """
        start = 0 if exit_index == 0 else self.exit_layers[exit_index - 1] + 1
        return self.stages[start : self.exit_layers[exit_index] + 1]

    def run_segment(self, exit_index: int, x: np.ndarray) -> np.ndarray:
        for stage in self.segment_stages(exit_index):
            x = stage.forward(x)
        return x

    def exit_logits(self, exit_index: int, feats: np.ndarray) -> np.ndarray:
        return self.exit_heads[exit_index].forward(feats)

    def exit_proba(self, exit_index: int, feats: np.ndarray) -> np.ndarray:
        return softmax(self.exit_logits(exit_index, feats), axis=1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Logits of the deepest exit (the non-cascaded fallback path)."""
        for stage in self.stages:
            x = stage.forward(x)
        return self.exit_heads[-1].forward(x)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return softmax(self.forward(x), axis=1)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(x), axis=1)


def exit_model_parameters(stages: list[Module], aux_head: Module) -> int:
    """Parameter count of an early-exit deployment (stages + exit head)."""
    return sum(s.num_parameters() for s in stages) + aux_head.num_parameters()
