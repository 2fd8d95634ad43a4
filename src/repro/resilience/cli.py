"""The small training job behind ``repro-faults train`` and ``resume-check``.

Determinism note: the trainer's modeled clock must itself be
deterministic for resume to be byte-identical, so the job keeps the
timing model's measured-codec path off (``codec_name=None`` — the cost
model then uses only its configured constants).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..faults.scenarios import Scenario
from .plan import ResilienceConfig

if TYPE_CHECKING:  # heavy import deferred to runtime (see build_trainer)
    from ..train.ddp import DDPTrainer

__all__ = ["build_trainer"]


def build_trainer(
    scenario: Scenario,
    seed: int = 0,
    epochs: int = 20,
    world_size: int = 4,
    trim_rate: float = 0.5,
    error_feedback: bool = False,
    deadline_factor: float = 1.5,
    evict_after: int = 3,
    label: str = "resilience",
) -> "DDPTrainer":
    """One standard small training job under ``scenario``'s fault plan.

    Deliberately tiny (MLP on the synthetic 8-class task) so the
    20-epoch acceptance run finishes in seconds; every component is the
    real one (RHT codec, trim channel, deadline, membership).
    """
    from ..collectives.hooks import AllReduceHook
    from ..core.codec import codec_by_name
    from ..nn.data import make_dataset
    from ..nn.models import MLP
    from ..train.ddp import DDPTrainer, TrainConfig
    from ..train.timing import RoundTimeModel
    from ..train.trim_channel import TrimChannel

    train_set, test_set = make_dataset(
        num_classes=8,
        train_per_class=16,
        test_per_class=8,
        image_size=8,
        noise=1.0,
        seed=seed,
    )
    model = MLP(192, [16], 8, seed=seed + 3)
    hook = AllReduceHook(
        TrimChannel(
            codec_by_name("rht", root_seed=seed + 1, row_size=1024),
            trim_rate,
            seed=seed + 2,
        )
    )
    config = TrainConfig(
        epochs=epochs, batch_size=8, lr=0.1, seed=seed, augment=True
    )
    resilience = ResilienceConfig.from_scenario(
        scenario,
        deadline_factor=deadline_factor,
        evict_after=evict_after,
        error_feedback=error_feedback,
    )
    return DDPTrainer(
        model,
        train_set,
        test_set,
        world_size=world_size,
        hook=hook,
        config=config,
        time_model=RoundTimeModel(),
        resilience=resilience,
        label=label,
    )
