"""MLContext-style programmatic API: execute DML scripts with in-memory
inputs and outputs.

    from repro import MLContext
    ml = MLContext()
    result = ml.execute("B = t(X) %*% X", inputs={"X": x}, outputs=["B"])
    result.matrix("B")

Inputs may be NumPy arrays, tensor blocks, frames, or Python scalars.
``execute`` runs the script's cached :class:`~repro.api.jmlc.PreparedScript`
with this session's reuse cache, stats registry and checkpoint manager, so
any later run of the script reuses its program, plans and traces.  With
lineage reuse enabled (paper section 3.1) inputs are named by content, and
any run that sees the same data reuses what an earlier one cached.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.config import ReproConfig, default_config
from repro.errors import RuntimeDMLError
from repro.lineage import ReuseCache
from repro.runtime.context import ExecutionContext
from repro.runtime.data import FrameObject, ListObject, MatrixObject, ScalarObject
from repro.tensor import BasicTensorBlock, Frame

InputValue = Union[np.ndarray, BasicTensorBlock, Frame, int, float, bool, str]


class Results:
    """Outputs of one script execution."""

    def __init__(self, ctx: ExecutionContext, outputs: Sequence[str],
                 protected: Sequence[str] = ()):
        self._ctx = ctx
        self.output_names = list(outputs)
        self.prints = list(ctx.prints)
        self.metrics = dict(ctx.metrics)
        self._protected = tuple(protected)

    def close(self) -> None:
        """Release the context's payloads once outputs are copied out (the
        inputs' payloads survive), and unbind the run's fault plan."""
        self._ctx.close(keep=self._protected)

    def get(self, name: str):
        value = self._ctx.get_or_none(name)
        if value is None:
            raise RuntimeDMLError(f"no output variable {name!r}")
        return value

    def matrix(self, name: str) -> np.ndarray:
        value = self.get(name)
        if isinstance(value, MatrixObject):
            return value.acquire_local(self._ctx.collect).to_numpy()
        if isinstance(value, ScalarObject):
            return np.asarray([[value.as_float()]])
        raise RuntimeDMLError(f"output {name!r} is not a matrix")

    def scalar(self, name: str):
        value = self.get(name)
        if isinstance(value, ScalarObject):
            return value.value
        if isinstance(value, MatrixObject):
            return value.acquire_local(self._ctx.collect).as_scalar()
        raise RuntimeDMLError(f"output {name!r} is not a scalar")

    def frame(self, name: str) -> Frame:
        value = self.get(name)
        if isinstance(value, FrameObject):
            return value.frame
        raise RuntimeDMLError(f"output {name!r} is not a frame")

    def lineage(self, name: str):
        """The lineage item of an output (None when lineage is disabled)."""
        if self._ctx.tracer is None:
            return None
        return self._ctx.tracer.get(name)


class MLContext:
    """Script-execution entry point with a session on the reuse cache."""

    def __init__(self, config: Optional[ReproConfig] = None):
        self.config = config or default_config()
        self._reuse: Optional[ReuseCache] = None
        if self.config.reuse_enabled:
            self._reuse = ReuseCache.for_config(self.config)
        self._stats = None
        if self.config.enable_stats:
            self.set_stats(True)
        self._checkpoints = None
        if self.config.checkpoint_dir is not None:
            from repro.checkpoint import CheckpointManager

            self._checkpoints = CheckpointManager.from_config(self.config)

    @property
    def reuse_cache(self) -> Optional[ReuseCache]:
        return self._reuse

    def set_stats(self, enabled: bool = True) -> "MLContext":
        """Toggle unified runtime statistics (SystemDS ``setStatistics``):
        later runs profile into one session :class:`repro.obs.StatsRegistry`."""
        if enabled and self._stats is None:
            from repro.obs import StatsRegistry

            self._stats = StatsRegistry()
        elif not enabled:
            self._stats = None
        return self

    def stats(self):
        """The session's :class:`repro.obs.StatsRegistry` (None when off)."""
        return self._stats

    def checkpoints(self):
        """The session's :class:`CheckpointManager` (None when off)."""
        return self._checkpoints

    def prepare(self, script: str, inputs: Sequence[str] = (),
                outputs: Optional[Sequence[str]] = None, capture_prints: bool = True):
        """The prepared script :meth:`execute` runs, bound to this session."""
        from repro.api.jmlc import PreparedScript

        return PreparedScript(
            script, inputs, list(outputs or []), config=self.config,
            reuse_cache=self._reuse, stats=self._stats,
            checkpoints=self._checkpoints, capture_prints=capture_prints,
        )

    def execute(self, script: str, inputs: Optional[Dict[str, InputValue]] = None,
                outputs: Optional[Sequence[str]] = None,
                capture_prints: bool = True) -> Results:
        inputs = inputs or {}
        return self.prepare(script, list(inputs), outputs, capture_prints).execute(**inputs)


def dml(script: str) -> "Script":
    """Fluent wrapper: ``dml(src).input(X=x).output("B").execute()``."""
    return Script(script)


class Script:
    """A DML script with staged inputs/outputs (MLContext convenience API)."""

    def __init__(self, source: str):
        self.source = source
        self._inputs: Dict[str, InputValue] = {}
        self._outputs: List[str] = []

    def input(self, **bindings: InputValue) -> "Script":
        self._inputs.update(bindings)
        return self

    def output(self, *names: str) -> "Script":
        self._outputs.extend(names)
        return self

    def execute(self, context: Optional[MLContext] = None) -> Results:
        context = context or MLContext()
        return context.execute(self.source, self._inputs, self._outputs)


# ---------------------------------------------------------------------------
# input conversion
# ---------------------------------------------------------------------------


def _to_data_object(value: InputValue):
    if isinstance(value, (MatrixObject, FrameObject, ScalarObject, ListObject)):
        return value
    if isinstance(value, BasicTensorBlock):
        return MatrixObject.from_block(value)
    if isinstance(value, Frame):
        return FrameObject(value)
    if isinstance(value, np.ndarray):
        array = value if value.ndim == 2 else np.atleast_2d(value).T if value.ndim == 1 else value
        return MatrixObject.from_block(BasicTensorBlock.from_numpy(array))
    if hasattr(value, "tocsr"):  # scipy sparse
        return MatrixObject.from_block(BasicTensorBlock.from_scipy(value.tocsr()))
    if isinstance(value, (int, float, bool, str)):
        return ScalarObject(value)
    raise RuntimeDMLError(f"cannot bind input of type {type(value).__name__}")
