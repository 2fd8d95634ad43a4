"""Distributed data-parallel training with pluggable gradient channels.

The experiment engine behind Figures 3 and 4.  Faithful to the paper's
methodology: hold every hyper-parameter fixed ("SGD with momentum 0.9,
initial learning rate 1e-3 with StepLR, cross-entropy, batch size 64,
data augmentation") and vary only how gradients are aggregated between
workers — baseline, or a trimmable codec at some trim rate.

Implementation note: because synchronous DDP keeps all replicas
bit-identical (same aggregated gradient, same optimizer state), we hold
*one* model and run the per-worker forward/backward passes sequentially
on each worker's shard — mathematically identical to N replicas at 1/N
memory.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields
from operator import attrgetter
from types import SimpleNamespace
from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..collectives.hooks import AllReduceHook, CommHook, broadcast
from ..nn.data import DataLoader, SyntheticImages
from ..nn.functional import cross_entropy
from ..nn.layers import Module
from ..nn.metrics import evaluate
from ..nn.optim import SGD, StepLR
from ..nn.tensor import Tensor
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..resilience import (
    EFChannel,
    Membership,
    ResilienceConfig,
    RoundDeadline,
    TrainingCheckpoint,
)
from .timing import RoundTime, RoundTimeModel

__all__ = ["TrainConfig", "EpochRecord", "TrainingHistory", "DDPTrainer", "shard_dataset"]

#: What one round yields: per-worker gradients, epoch, ``train.round`` span id.
_RoundRequest = Tuple[List[np.ndarray], int, Optional[int]]


@dataclass
class TrainConfig:
    """Hyper-parameters, defaulting to the paper's recipe (footnote 4).

    A surrendered round's zero gradient still steps the optimizer, so
    the momentum buffers decay (``v <- mu*v``) through the lost round.
    """

    epochs: int = 20
    batch_size: int = 64
    lr: float = 1e-3
    momentum: float = 0.9
    step_size: int = 50
    gamma: float = 0.1
    augment: bool = True
    seed: int = 0


@dataclass
class EpochRecord:
    """One epoch's results: quality, modeled wall-clock, channel stats."""

    epoch: int
    train_loss: float
    top1: float
    top5: float
    round_time: RoundTime
    wall_clock_s: float  # cumulative modeled time at epoch end
    trim_fraction: float
    diverged: bool = False
    stragglers: int = 0  # worker-rounds excluded by the deadline
    evictions: int = 0
    rejoins: int = 0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (used by checkpoints and the CLI)."""
        return {
            "epoch": self.epoch,
            "train_loss": self.train_loss,
            "top1": self.top1,
            "top5": self.top5,
            "round_time": self.round_time.as_dict(),
            "wall_clock_s": self.wall_clock_s,
            "trim_fraction": self.trim_fraction,
            "diverged": self.diverged,
            "stragglers": self.stragglers,
            "evictions": self.evictions,
            "rejoins": self.rejoins,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EpochRecord":
        """Inverse of :meth:`as_dict`."""
        rt = data["round_time"]
        return cls(
            epoch=int(data["epoch"]),
            train_loss=float(data["train_loss"]),
            top1=float(data["top1"]),
            top5=float(data["top5"]),
            round_time=RoundTime(
                compute_s=float(rt["compute_s"]),
                encode_s=float(rt["encode_s"]),
                comm_s=float(rt["comm_s"]),
            ),
            wall_clock_s=float(data["wall_clock_s"]),
            trim_fraction=float(data["trim_fraction"]),
            diverged=bool(data["diverged"]),
            stragglers=int(data.get("stragglers", 0)),
            evictions=int(data.get("evictions", 0)),
            rejoins=int(data.get("rejoins", 0)),
        )


class TrainingHistory:
    """Per-epoch records plus the Figure 3/4 query helpers."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.records: List[EpochRecord] = []

    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    @property
    def final_top1(self) -> float:
        return self.records[-1].top1 if self.records else 0.0

    @property
    def final_top5(self) -> float:
        return self.records[-1].top5 if self.records else 0.0

    @property
    def best_top1(self) -> float:
        return max((r.top1 for r in self.records), default=0.0)

    @property
    def diverged(self) -> bool:
        return any(r.diverged for r in self.records)

    def accuracy_curve(self) -> List[tuple[float, float]]:
        """(wall_clock_s, top1) series — one Figure 3 line."""
        return [(r.wall_clock_s, r.top1) for r in self.records]

    def time_to_accuracy(self, target_top1: float) -> Optional[float]:
        """Modeled seconds until top-1 first reaches ``target`` (Fig. 4)."""
        for record in self.records:
            if record.top1 >= target_top1:
                return record.wall_clock_s
        return None

    def total_time(self) -> float:
        return self.records[-1].wall_clock_s if self.records else 0.0

    def as_dicts(self) -> List[Dict[str, Any]]:
        """All records in JSON-ready form."""
        return [record.as_dict() for record in self.records]

    def to_json(self) -> str:
        """Canonical JSON — byte-identical across identical runs."""
        return json.dumps(
            {"label": self.label, "records": self.as_dicts()}, sort_keys=True
        )


def shard_dataset(dataset: SyntheticImages, world_size: int) -> List[SyntheticImages]:
    """Round-robin split, the DistributedSampler equivalent."""
    if world_size < 1:
        raise ValueError("world_size must be at least 1")
    shards = []
    for rank in range(world_size):
        shards.append(
            SyntheticImages(
                images=dataset.images[rank::world_size],
                labels=dataset.labels[rank::world_size],
            )
        )
    return shards


class DDPTrainer:
    """Synchronous data-parallel training through a gradient hook.

    Args:
        model: the network (single copy; see module docstring).
        train_set / test_set: dataset splits.
        world_size: number of simulated workers.
        hook: gradient aggregation hook (None = perfect all-reduce).
        config: hyper-parameters.
        time_model: wall-clock cost model (None = count no time).
        codec_name: codec label for the time model (None = baseline).
        trim_rate: congestion level for the time model.
        divergence_loss: abort threshold — training whose epoch loss
            exceeds this (or goes NaN) is flagged diverged, like the
            sign codec at >= 2 % trim in the paper.
        optimizer_factory: callable mapping the parameter list to an
            optimizer (default: the paper's SGD+momentum from config) —
            used by the optimizer-sensitivity ablation.
        resilience: arm worker-level fault tolerance — a round deadline
            with partial aggregation, phi-accrual membership with
            eviction/rejoin, optional error feedback, and the fault plan
            evaluated on the modeled clock (see
            :class:`repro.resilience.ResilienceConfig`).  Requires a
            time model; a default one is created if none was given.
    """

    def __init__(
        self,
        model: Module,
        train_set: SyntheticImages,
        test_set: SyntheticImages,
        world_size: int = 2,
        hook: Optional[CommHook] = None,
        config: Optional[TrainConfig] = None,
        time_model: Optional[RoundTimeModel] = None,
        codec_name: Optional[str] = None,
        trim_rate: float = 0.0,
        divergence_loss: float = 50.0,
        label: Optional[str] = None,
        optimizer_factory=None,
        resilience: Optional[ResilienceConfig] = None,
    ) -> None:
        self.model = model
        self.test_set = test_set
        self.world_size = world_size
        self.hook = hook or AllReduceHook()
        self.config = config or TrainConfig()
        self.resilience = resilience
        if resilience is not None and time_model is None:
            time_model = RoundTimeModel()
        self.time_model = time_model
        self.codec_name = codec_name
        self.trim_rate = trim_rate
        self.divergence_loss = divergence_loss
        self.label = label or (codec_name or "baseline")

        cfg = self.config
        if optimizer_factory is not None:
            self.optimizer = optimizer_factory(model.parameters())
        else:
            self.optimizer = SGD(model.parameters(), lr=cfg.lr, momentum=cfg.momentum)
        self.scheduler = StepLR(self.optimizer, step_size=cfg.step_size, gamma=cfg.gamma)
        self.loaders = [
            DataLoader(
                shard,
                batch_size=cfg.batch_size,
                shuffle=True,
                augment=cfg.augment,
                seed=cfg.seed + rank,
            )
            for rank, shard in enumerate(shard_dataset(train_set, world_size))
        ]
        self.num_coords = model.num_parameters()
        self.history = TrainingHistory(self.label)
        # Rounds completed; outlives the trainer until the registry has it.
        self._rounds = SimpleNamespace(run=0)
        # Per-run mutable state (all checkpointable).
        self._wall_clock = 0.0
        self._cur_epoch = 1
        self._epoch_losses: List[float] = []
        self._epoch_start_wall = 0.0
        self._epoch_loader_states: Optional[List[dict]] = None
        self._skip_rounds = 0
        self._epoch_stragglers = 0
        self._epoch_evictions = 0
        self._epoch_rejoins = 0
        # Resilience wiring: deadline + membership from the cost model.
        self.deadline: Optional[RoundDeadline] = None
        self.membership: Optional[Membership] = None
        if resilience is not None:
            self.deadline = RoundDeadline.from_time_model(
                self.time_model,
                self.num_coords,
                factor=resilience.deadline_factor,
                label=self.label,
                codec_name=codec_name,
                trim_rate=trim_rate,
                world_size=world_size,
            )
            self.membership = Membership(
                world_size,
                evict_after=resilience.evict_after,
                suspect_phi=resilience.suspect_phi,
                label=self.label,
            )
            self.hook.deadline = self.deadline
            if resilience.error_feedback and not isinstance(
                self.hook.channel, EFChannel
            ):
                self.hook.channel = EFChannel(self.hook.channel, label=self.label)
        registry = get_registry()
        registry.publish_tally(self, self._rounds, {
            "run": registry.counter("repro_train_rounds_total", ("run",)),
        }, run=self.label)

    _rounds_run = property(attrgetter("_rounds.run"))

    # -- one synchronous round -------------------------------------------------

    def _worker_times(self, base_s: float, now_s: float) -> Dict[int, float]:
        """Modeled per-worker round times under the fault plan.

        Evicted workers and workers inside a crash window get ``inf``
        (they do no compute and miss every deadline); stragglers get the
        plan's stretched time.
        """
        assert self.resilience is not None and self.membership is not None
        plan = self.resilience.plan
        times: Dict[int, float] = {}
        for rank in range(self.world_size):
            if self.membership.is_dead(rank):
                times[rank] = math.inf
            else:
                times[rank] = plan.round_time(rank, base_s, now_s)
        return times

    def _maybe_rejoin(self, base_s: float, now_s: float, epoch: int) -> None:
        """Re-admit evicted workers whose fault window has closed."""
        assert self.resilience is not None
        if not self.resilience.rejoin:
            return
        membership, deadline = self.membership, self.deadline
        assert membership is not None and deadline is not None
        plan = self.resilience.plan
        for rank in range(self.world_size):
            if not membership.is_dead(rank):
                continue
            if plan.round_time(rank, base_s, now_s) > deadline.deadline_s:
                continue  # still crashed or too slow to make the deadline
            # Rejoin protocol: the live workers broadcast the current
            # model so the returning worker resumes from fresh params.
            # Error feedback is bypassed (parameters are not gradients)
            # and the rejoiner's stale residuals are discarded.
            channel = self.hook.channel
            if isinstance(channel, EFChannel):
                channel.drop_worker(rank)
                channel = channel.inner
            broadcast(
                self.model.flat_parameters(),
                self.world_size,
                channel,
                epoch=epoch,
                message_id=self.hook.next_message_id(),
            )
            membership.readmit(rank)
            self._epoch_rejoins += 1

    def _round(
        self, batches, epoch: int, now_s: float
    ) -> Generator[_RoundRequest, np.ndarray, float]:
        """Forward/backward per worker, yield for the aggregate, step.

        Yields once (see :meth:`rounds`); returns the round's mean loss.
        """
        round_start = time.perf_counter()
        times: Optional[Dict[int, float]] = None
        if self.resilience is not None:
            base_s = self._epoch_round_time().total_s
            self._maybe_rejoin(base_s, now_s, epoch)
            times = self._worker_times(base_s, now_s)
            assert self.deadline is not None
            self.deadline.begin_round(times)
        grads: List[np.ndarray] = []
        losses: List[float] = []
        for rank, (images, labels) in enumerate(batches):
            if times is not None and not math.isfinite(times[rank]):
                # Crashed/evicted workers do no compute; the deadline
                # keeps their placeholder out of the collective.
                grads.append(np.zeros(self.num_coords))
                continue
            self.model.zero_grad()
            loss = cross_entropy(self.model(Tensor(images)), labels)
            loss.backward()
            grads.append(self.model.flat_gradient())
            losses.append(loss.item())
        surrendered_before = self.hook.stats.rounds_surrendered
        # Root of the causal span tree; timed on the *modeled* clock so
        # span JSONL is byte-identical across same-seed runs.
        tracer = get_tracer()
        round_span = tracer.begin(
            "train.round",
            t=now_s,
            run=self.label,
            epoch=epoch,
            round=self._rounds_run + 1,
        )
        aggregated = yield grads, epoch, round_span
        if round_span is not None:
            tracer.end(
                round_span,
                t=now_s + self._epoch_round_time().total_s,
                surrendered=self.hook.stats.rounds_surrendered - surrendered_before,
            )
        self.model.load_flat_gradient(aggregated)
        self.optimizer.step()
        if times is not None:
            self._update_membership(times)
        self._rounds.run += 1
        round_seconds = time.perf_counter() - round_start
        mean_loss = float(np.mean(losses)) if losses else float("nan")
        if tracer.enabled:
            tracer.event(
                "train.round",
                duration_s=round_seconds,
                run=self.label,
                epoch=epoch,
                round=self._rounds_run,
                loss=mean_loss,
            )
        return mean_loss

    def _update_membership(self, times: Dict[int, float]) -> None:
        """Feed the detector with this round's outcome per worker."""
        membership, deadline = self.membership, self.deadline
        assert membership is not None and deadline is not None
        evictions_before = membership.evictions
        for rank in deadline.last_stragglers:
            membership.miss(rank)
        for rank in deadline.last_responders:
            membership.observe(rank, times[rank])
        self._epoch_stragglers += len(deadline.last_stragglers)
        self._epoch_evictions += membership.evictions - evictions_before

    def _epoch_round_time(self) -> RoundTime:
        if self.time_model is None:
            return RoundTime(0.0, 0.0, 0.0)
        return self.time_model.round_time(
            self.num_coords,
            codec_name=self.codec_name,
            trim_rate=self.trim_rate,
            world_size=self.world_size,
        )

    # -- training loop --------------------------------------------------------------

    def train(
        self, epochs: Optional[int] = None, max_rounds: Optional[int] = None
    ) -> TrainingHistory:
        """Run the configured number of epochs; returns the history.

        ``max_rounds`` stops after that many *total* rounds (counting
        any restored from a checkpoint) without recording a partial
        epoch — the crash-at-round-R half of the resume test.  Calling
        :meth:`train` again (or restoring a checkpoint first) continues
        exactly where the run stopped.
        """
        stepper = self.rounds(epochs, max_rounds)
        tracer = get_tracer()
        request = next(stepper, None)
        while request is not None:
            grads, epoch, round_span = request
            with tracer.context(round_span):
                aggregated = self.hook.aggregate(grads, epoch=epoch)
            try:
                request = stepper.send(aggregated)
            except StopIteration:
                request = None
        return self.history

    def rounds(
        self, epochs: Optional[int] = None, max_rounds: Optional[int] = None
    ) -> Generator[_RoundRequest, np.ndarray, None]:
        """:meth:`train`, suspended at every aggregation point.

        Each synchronous round yields ``(grads, epoch, round_span)`` —
        the per-worker flat gradients, the epoch they belong to and the
        id of the open ``train.round`` span (None when tracing is off) —
        and expects the aggregated gradient to be sent back.
        Whoever drives the generator decides how aggregation happens:
        :meth:`train` calls ``hook.aggregate`` on the spot; the cluster
        driver advances many trainers from one thread and lets their
        gradients cross the shared fabric together.  All state lives on
        the trainer, so ``max_rounds``, :meth:`checkpoint` and
        :meth:`restore` mean exactly what they do for :meth:`train`.
        """
        epochs = epochs if epochs is not None else self.config.epochs
        round_time = self._epoch_round_time()
        epoch = self._cur_epoch
        while epoch <= epochs:
            skip = self._skip_rounds
            self._skip_rounds = 0
            if skip == 0:
                # Epoch start: snapshot everything a mid-epoch resume
                # needs to rewind to this exact point.
                self._epoch_loader_states = [ld.state() for ld in self.loaders]
                self._epoch_losses = []
                self._epoch_start_wall = self._wall_clock
                self._epoch_stragglers = 0
                self._epoch_evictions = 0
                self._epoch_rejoins = 0
            diverged = False
            batch_iter = zip(*self.loaders)
            for _ in range(skip):
                # Resume path: loaders were rewound to the epoch start,
                # so replay (and discard) the already-trained rounds to
                # realign every RNG draw.
                if next(batch_iter, None) is None:
                    break
            for batches in batch_iter:
                now_s = (
                    self._epoch_start_wall
                    + len(self._epoch_losses) * round_time.total_s
                )
                loss = yield from self._round(batches, epoch=epoch, now_s=now_s)
                self._epoch_losses.append(loss)
                if not np.isfinite(loss) or loss > self.divergence_loss:
                    diverged = True
                    break
                if max_rounds is not None and self._rounds_run >= max_rounds:
                    return
            rounds_this_epoch = len(self._epoch_losses)
            self._wall_clock = (
                self._epoch_start_wall + rounds_this_epoch * round_time.total_s
            )
            accuracy = evaluate(self.model, self.test_set)
            mean_loss = (
                float(np.mean(self._epoch_losses))
                if self._epoch_losses
                else float("nan")
            )
            self.history.append(
                EpochRecord(
                    epoch=epoch,
                    train_loss=mean_loss,
                    top1=accuracy[1],
                    top5=accuracy.get(5, accuracy[1]),
                    round_time=round_time,
                    wall_clock_s=self._wall_clock,
                    trim_fraction=self.hook.stats.trim_fraction,
                    diverged=diverged,
                    stragglers=self._epoch_stragglers,
                    evictions=self._epoch_evictions,
                    rejoins=self._epoch_rejoins,
                )
            )
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "train.epoch",
                    run=self.label,
                    epoch=epoch,
                    loss=mean_loss,
                    top1=accuracy[1],
                    trim_fraction=self.hook.stats.trim_fraction,
                    modeled_wall_clock_s=self._wall_clock,
                    diverged=diverged,
                    stragglers=self._epoch_stragglers,
                    evictions=self._epoch_evictions,
                    rejoins=self._epoch_rejoins,
                )
            self._cur_epoch = epoch + 1
            if diverged:
                break
            self.scheduler.step()
            epoch += 1

    # -- checkpoint / resume ---------------------------------------------------

    def checkpoint(self) -> TrainingCheckpoint:
        """Snapshot the full training state (see :mod:`repro.resilience`)."""
        state_dict = getattr(self.optimizer, "state_dict", None)
        if not callable(state_dict):
            raise TypeError(
                f"{type(self.optimizer).__name__} does not support "
                "state_dict(); checkpointing requires SGD"
            )
        loader_states = self._epoch_loader_states
        if loader_states is None:  # checkpoint before any training
            loader_states = [ld.state() for ld in self.loaders]
        stats = {
            key: value
            for key, value in self.hook.stats.as_dict().items()
            if key != "trim_fraction"  # derived
        }
        ckpt = TrainingCheckpoint(
            label=self.label,
            seed=self.config.seed,
            epoch=self._cur_epoch,
            rounds_run=self._rounds_run,
            rounds_in_epoch=len(self._epoch_losses),
            wall_clock_s=self._epoch_start_wall,
            epoch_losses=list(self._epoch_losses),
            model_flat=self.model.flat_parameters().tolist(),
            optimizer=state_dict(),
            scheduler_epoch=self.scheduler.epoch,
            loader_states=[dict(s) for s in loader_states],
            message_counter=self.hook._message_counter,
            channel_stats=stats,
            history=self.history.as_dicts(),
            epoch_stragglers=self._epoch_stragglers,
            epoch_evictions=self._epoch_evictions,
            epoch_rejoins=self._epoch_rejoins,
        )
        if self.deadline is not None:
            ckpt.deadline = self.deadline.state_dict()
        if self.membership is not None:
            ckpt.membership = self.membership.state_dict()
        if isinstance(self.hook.channel, EFChannel):
            ckpt.ef = self.hook.channel.state_dict()
        return ckpt

    def restore(self, ckpt: TrainingCheckpoint) -> None:
        """Load a checkpoint; the next :meth:`train` continues the run.

        Restores parameters, momentum, scheduler, loader RNGs (rewound
        to the epoch start — :meth:`train` replays the finished rounds),
        all counters, and the resilience state, so the continued run is
        byte-identical to one that never stopped.
        """
        if ckpt.label != self.label:
            raise ValueError(f"checkpoint is for {ckpt.label!r}, not {self.label!r}")
        if ckpt.seed != self.config.seed:
            raise ValueError(
                f"checkpoint seed {ckpt.seed} != config seed {self.config.seed}"
            )
        if len(ckpt.loader_states) != len(self.loaders):
            raise ValueError(
                f"checkpoint has {len(ckpt.loader_states)} loaders, "
                f"trainer has {len(self.loaders)}"
            )
        known = {spec.name for spec in fields(self.hook.stats)}
        for key in ckpt.channel_stats:
            if key not in known:
                raise ValueError(f"unknown channel stat {key!r}")
        self.model.load_flat_parameters(
            np.asarray(ckpt.model_flat, dtype=np.float64)
        )
        self.optimizer.load_state_dict(ckpt.optimizer)
        self.scheduler.set_epoch(ckpt.scheduler_epoch)
        for loader, state in zip(self.loaders, ckpt.loader_states):
            loader.set_state(state)
        self._epoch_loader_states = [dict(s) for s in ckpt.loader_states]
        self.hook._message_counter = ckpt.message_counter
        for key, value in ckpt.channel_stats.items():
            setattr(self.hook.stats, key, value)
        self.history = TrainingHistory(self.label)
        for record in ckpt.history:
            self.history.append(EpochRecord.from_dict(record))
        self._rounds.run = ckpt.rounds_run
        self._cur_epoch = ckpt.epoch
        self._epoch_losses = list(ckpt.epoch_losses)
        self._epoch_start_wall = ckpt.wall_clock_s
        self._wall_clock = ckpt.wall_clock_s
        self._skip_rounds = ckpt.rounds_in_epoch
        self._epoch_stragglers = ckpt.epoch_stragglers
        self._epoch_evictions = ckpt.epoch_evictions
        self._epoch_rejoins = ckpt.epoch_rejoins
        if self.deadline is not None and ckpt.deadline:
            self.deadline.load_state_dict(ckpt.deadline)
        if self.membership is not None and ckpt.membership:
            self.membership.load_state_dict(ckpt.membership)
        if isinstance(self.hook.channel, EFChannel) and ckpt.ef:
            self.hook.channel.load_state_dict(ckpt.ef)
