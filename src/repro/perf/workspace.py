"""Workspace: reusable, capacity-keyed scratch buffers for the numpy kernels.

The pure-numpy substrate spends a surprising share of each training step
inside ``malloc``/page-zeroing: every conv forward materializes a fresh
column matrix, every backward a fresh scatter target, every pooling pass a
fresh window copy.  None of those arrays outlive the step.  A
``Workspace`` gives one module named slots that persist across steps, so
a steady-state loop allocates nothing after its first (largest) batch.

Contract:

* **Capacity, not shape.**  A slot is a grow-only byte buffer;
  ``get(name, shape, dtype)`` hands out a *view* over its first bytes.
  The buffer is reallocated only when a request exceeds its capacity, so
  a slot holds exactly its largest request: a tail batch, a smaller
  evaluation chunk or a different dtype re-view the same bytes instead of
  parking a second buffer.
* **Views and ``fresh``.**  While ``(shape, dtype)`` holds and the same
  caller asks (see Pools), ``get`` returns the same view object with
  ``fresh=False`` and the contents the caller left there.  On *every*
  change of shape or dtype -- growing, shrinking, or coming back to an
  earlier shape -- it returns a new view with ``fresh=True`` and undefined
  contents: one-time initialization (the zeroed padding border of the
  conv's NHWC staging slot) must be redone, because the same bytes
  were laid out differently in between.
* **Internal scratch.**  ``forward`` never returns a view of a slot: a
  unit's output outlives its own backward and feeds the next unit, which
  may share the workspace.  An input gradient returned from ``backward``
  may alias one, because its caller consumes it before any module runs
  again; everything else that escapes a step is freshly allocated.
* **Pools.**  ``Module.attach_workspace(pool)`` binds each module of a
  tree to ``pool[position]`` (its index in ``modules()`` order), so
  modules that never run at the same time -- the layer units of one
  block, or their auxiliary heads; in a multiprocess stage, those of all
  the stage's blocks, which take turns per micro-batch -- share one
  workspace per position and a slot holds the largest request of *any*
  of its users.  Without a pool every module gets its own workspace.
  What a module leaves in a slot -- a column matrix kept for its
  backward, a zeroed border -- therefore lasts only until another user
  of the slot runs: a request from any other user than the last hands
  the slot out ``fresh``, so one-time initialization is redone.
* **Ownership.**  ``detach_workspace`` drops a module's binding; the
  bytes go when the last module bound to them does.  Whoever attaches
  owns the lifetime -- the sequential block loop for exactly as long as
  the block trains, the concurrent schedules and the baseline frame for
  the run, ``simulate_fleet`` for as long as it builds the route cache
  (a ``CascadeRouter`` attaches lazily; its model's builder detaches).
"""

from __future__ import annotations

import math

import numpy as np


class Workspace:
    """Named, persistent, capacity-keyed scratch slots for one module, or
    for one position of a pool of modules that run one at a time.

    ``get(name, shape, dtype, user)`` returns ``(view, fresh)``; see the
    module docstring for when ``fresh`` is True.
    """

    __slots__ = ("_slots",)

    def __init__(self) -> None:
        #: name -> (backing bytes, current view over them, last user)
        self._slots: dict[str, tuple[np.ndarray, np.ndarray, object]] = {}

    def get(
        self, name: str, shape: tuple[int, ...], dtype=np.float32, user=None
    ) -> tuple[np.ndarray, bool]:
        shape = tuple(shape)
        dtype = np.dtype(dtype)
        raw, view, last = self._slots.get(name, (None, None, None))
        if view is not None and view.shape == shape and view.dtype == dtype:
            if last is user:
                return view, False
        else:
            nbytes = math.prod(shape) * dtype.itemsize
            if raw is None or raw.nbytes < nbytes:
                raw = np.empty(nbytes, np.uint8)
            view = raw[:nbytes].view(dtype).reshape(shape)
        self._slots[name] = (raw, view, user)
        return view, True

    def buf(self, name: str, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """Like :meth:`get` but without the freshness flag."""
        return self.get(name, shape, dtype)[0]

    def zeros(self, name: str, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """A zero-filled slot (cleared on every call)."""
        buf = self.buf(name, shape, dtype)
        buf.fill(0)
        return buf

    @property
    def nbytes(self) -> int:
        """Bytes held: per slot, the largest request it has served."""
        return sum(raw.nbytes for raw, _, _ in self._slots.values())

    def __len__(self) -> int:
        return len(self._slots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Workspace(slots={sorted(self._slots)}, nbytes={self.nbytes})"
