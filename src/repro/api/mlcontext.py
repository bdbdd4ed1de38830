"""MLContext-style programmatic API: compile and execute DML scripts with
in-memory inputs and outputs.

    from repro import MLContext
    ml = MLContext()
    result = ml.execute("B = t(X) %*% X", inputs={"X": x}, outputs=["B"])
    result.matrix("B")

Inputs may be NumPy arrays, tensor blocks, frames, or Python scalars.  With
lineage reuse enabled (paper section 3.1) an MLContext holds a session on the
process-wide reuse cache: inputs are named by their content, so any
``execute`` — of this or of a later MLContext — that sees the same data
reuses the reads and products an earlier one cached.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.compiler.compile import compile_script
from repro.compiler.sizes import VarStats
from repro.config import ReproConfig, default_config
from repro.errors import RuntimeDMLError
from repro.lineage import ReuseCache
from repro.runtime.context import ExecutionContext
from repro.runtime.data import (
    FrameObject,
    ListObject,
    MatrixObject,
    ScalarObject,
)
from repro.runtime.interpreter import execute_program
from repro.tensor import BasicTensorBlock, Frame
from repro.types import DataType

InputValue = Union[np.ndarray, BasicTensorBlock, Frame, int, float, bool, str]


class Results:
    """Outputs of one script execution."""

    def __init__(
        self,
        ctx: ExecutionContext,
        outputs: Sequence[str],
        protected: Sequence[str] = (),
    ):
        self._ctx = ctx
        self.output_names = list(outputs)
        self.prints = list(ctx.prints)
        self.metrics = dict(ctx.metrics)
        self._protected = tuple(protected)

    def close(self) -> None:
        """Release the execution context's payloads (after extracting outputs).

        Caller-owned input bindings are protected: their payloads survive.
        Serving hot paths call this once the outputs are copied out, so the
        shared buffer pool is not left waiting on garbage collection.
        """
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
    """Compile-and-execute entry point with a session on the reuse cache."""

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
        """Toggle unified runtime statistics (SystemDS ``setStatistics``).

        When enabled, every subsequent :meth:`execute` profiles per
        instruction into one session-scoped :class:`repro.obs.StatsRegistry`;
        read it via :meth:`stats`.
        """
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

    def execute(
        self,
        script: str,
        inputs: Optional[Dict[str, InputValue]] = None,
        outputs: Optional[Sequence[str]] = None,
        capture_prints: bool = True,
    ) -> Results:
        inputs = inputs or {}
        outputs = list(outputs or [])
        bound = {name: _to_data_object(value) for name, value in inputs.items()}
        stats = {name: _stats_of(value) for name, value in bound.items()}
        program = compile_script(script, self.config, stats, outputs)
        handler = (lambda text: None) if capture_prints else None
        if self._checkpoints is not None:
            from repro.checkpoint.manager import script_fingerprint

            self._checkpoints.bind_fingerprint(script_fingerprint(script))
        ctx = ExecutionContext(
            program, self.config, reuse=self._reuse, print_handler=handler,
            stats=self._stats, checkpoints=self._checkpoints,
        )
        for name, value in bound.items():
            ctx.set(name, value)
            if ctx.tracer is not None:
                ctx.tracer.bind_input(name, value)
        execute_program(program, ctx)
        return Results(ctx, outputs)


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
    if isinstance(value, MatrixObject) or isinstance(value, FrameObject) \
            or isinstance(value, ScalarObject) or isinstance(value, ListObject):
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


def _stats_of(value) -> VarStats:
    if isinstance(value, ScalarObject):
        return VarStats.scalar(value.value_type)
    if isinstance(value, MatrixObject):
        return VarStats(DataType.MATRIX, value.value_type, value.num_rows, value.num_cols, value.nnz)
    if isinstance(value, FrameObject):
        return VarStats(DataType.FRAME, None, value.num_rows, value.num_cols, -1)
    if isinstance(value, ListObject):
        return VarStats(DataType.LIST, None, len(value), 1, -1)
    return VarStats()
