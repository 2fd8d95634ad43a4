"""Deterministic training checkpoints.

A checkpoint is a plain-data snapshot of *everything* that feeds the
training trajectory: model parameters, SGD momentum buffers, the LR
scheduler's epoch, epoch/round counters, each data loader's PCG64
state as captured at the start of the current epoch, channel
accounting, and the resilience state (deadline counters, membership,
error-feedback residuals).  Codec randomness needs no snapshot — it is
counter-based Philox keyed by ``(seed, epoch, message_id)``, a pure
function of counters that are themselves checkpointed.

Numbers round-trip through JSON exactly (Python serializes floats via
``repr``, which is shortest-round-trip), so saving, loading and
continuing produces a byte-identical :class:`TrainingHistory` to the
uninterrupted run — the invariant ``repro-faults resume-check``
verifies in CI.

This module is deliberately import-light (no trainer imports); the
restore logic that knows about models and optimizers lives in
:meth:`repro.train.ddp.DDPTrainer.restore`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Mapping, Union

__all__ = ["TrainingCheckpoint"]


@dataclass
class TrainingCheckpoint:
    """Everything needed to resume training mid-epoch, JSON-ready.

    Attributes:
        label: the run label (sanity-checked on restore).
        seed: the training config seed (sanity-checked on restore).
        epoch: the epoch the run was inside when snapshotted (1-based).
        rounds_run: total rounds completed so far.
        rounds_in_epoch: rounds completed inside the current epoch.
        wall_clock_s: modeled wall clock at the *start* of the epoch.
        epoch_losses: per-round losses of the current, partial epoch.
        model_flat: flattened model parameters.
        optimizer: SGD state (velocity buffers + current lr).
        scheduler_epoch: completed scheduler steps.
        loader_states: each loader's RNG state at the epoch start —
            restore rewinds to the epoch start and replays the already
            finished rounds so mid-epoch draws line up exactly.
        message_counter: the comm hook's message-id counter.
        channel_stats: cumulative ChannelStats fields.
        history: per-epoch records completed before the snapshot.
        deadline: RoundDeadline counters (absent without resilience).
        membership: Membership state (absent without resilience).
        ef: EFChannel residuals (absent without error feedback).
    """

    label: str
    seed: int
    epoch: int
    rounds_run: int
    rounds_in_epoch: int
    wall_clock_s: float
    epoch_losses: List[float]
    model_flat: List[float]
    optimizer: Dict[str, Any]
    scheduler_epoch: int
    loader_states: List[Dict[str, Any]]
    message_counter: int
    channel_stats: Dict[str, Any]
    history: List[Dict[str, Any]] = field(default_factory=list)
    epoch_stragglers: int = 0  # straggler count inside the partial epoch
    epoch_evictions: int = 0
    epoch_rejoins: int = 0
    deadline: Dict[str, Any] = field(default_factory=dict)
    membership: Dict[str, Any] = field(default_factory=dict)
    ef: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        """Canonical (sorted-keys) JSON form."""
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrainingCheckpoint":
        """Inverse of :meth:`to_json`; unknown keys are rejected."""
        data: Mapping[str, Any] = json.loads(text)
        known = {f.name for f in fields(cls)}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown checkpoint keys: {sorted(extra)}")
        return cls(**data)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the canonical JSON to ``path``."""
        target = Path(path)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TrainingCheckpoint":
        """Read a checkpoint previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))
