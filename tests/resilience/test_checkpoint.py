"""Deterministic checkpoint/resume: crash at round R, continue byte-identically."""

import numpy as np
import pytest

from repro.collectives import AllReduceHook
from repro.core import codec_by_name
from repro.faults import scenario_by_name
from repro.nn.data import make_dataset
from repro.nn.models import MLP
from repro.resilience import ResilienceConfig, TrainingCheckpoint
from repro.resilience.cli import build_trainer
from repro.train import DDPTrainer, TrainConfig, TrimChannel
from repro.train.timing import RoundTimeModel


def small_trainer(seed=0, epochs=3, resilience=None, label="ckpt"):
    train_set, test_set = make_dataset(
        num_classes=4, train_per_class=8, test_per_class=4, image_size=6, seed=seed
    )
    model = MLP(108, [8], 4, seed=seed + 3)
    hook = AllReduceHook(
        TrimChannel(codec_by_name("rht", root_seed=1, row_size=1024), 0.4, seed=2)
    )
    return DDPTrainer(
        model,
        train_set,
        test_set,
        world_size=2,
        hook=hook,
        config=TrainConfig(epochs=epochs, batch_size=4, lr=0.05, seed=seed),
        time_model=RoundTimeModel(),
        resilience=resilience,
        label=label,
    )


def drive_by_hand(trainer, max_rounds=None):
    """What ``train()`` does, spelled out on the public stepper."""
    stepper = trainer.rounds(max_rounds=max_rounds)
    request = next(stepper, None)
    while request is not None:
        grads, epoch, _round_span = request
        try:
            request = stepper.send(trainer.hook.aggregate(grads, epoch=epoch))
        except StopIteration:
            request = None
    return trainer.history


class TestCheckpointObject:
    def test_json_round_trip(self):
        trainer = small_trainer()
        trainer.train(max_rounds=3)
        ckpt = trainer.checkpoint()
        blob = ckpt.to_json()
        assert TrainingCheckpoint.from_json(blob).to_json() == blob

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown checkpoint keys"):
            TrainingCheckpoint.from_json('{"bogus": 1}')

    def test_save_load(self, tmp_path):
        trainer = small_trainer()
        trainer.train(max_rounds=2)
        ckpt = trainer.checkpoint()
        path = ckpt.save(tmp_path / "run.ckpt.json")
        assert TrainingCheckpoint.load(path).to_json() == ckpt.to_json()


class TestByteIdenticalResume:
    @pytest.mark.parametrize("run", [DDPTrainer.train, drive_by_hand])
    @pytest.mark.parametrize("crash_round", [1, 5, 6, 11])
    def test_plain_training(self, crash_round, run):
        # crash_round 6 is an exact epoch boundary (3 rounds/epoch here);
        # 11 is one short of the full 12-round run.  The hand-driven
        # stepper must stop, checkpoint and continue exactly as train().
        reference = small_trainer().train().to_json()

        crashed = small_trainer()
        run(crashed, max_rounds=crash_round)
        blob = crashed.checkpoint().to_json()

        resumed = small_trainer()
        resumed.restore(TrainingCheckpoint.from_json(blob))
        assert run(resumed).to_json() == reference

    def test_under_worker_faults_with_ef(self):
        scenario = scenario_by_name("worker-crash")

        def trainer():
            return build_trainer(
                scenario, epochs=3, world_size=3, error_feedback=True
            )

        reference = trainer().train().to_json()
        crashed = trainer()
        crashed.train(max_rounds=4)
        blob = crashed.checkpoint().to_json()
        resumed = trainer()
        resumed.restore(TrainingCheckpoint.from_json(blob))
        assert resumed.train().to_json() == reference

    def test_resumed_trainer_state_matches(self):
        scenario = scenario_by_name("straggler-storm")

        def trainer():
            return build_trainer(scenario, epochs=2, world_size=3)

        full = trainer()
        full.train()

        crashed = trainer()
        crashed.train(max_rounds=3)
        resumed = trainer()
        resumed.restore(TrainingCheckpoint.from_json(crashed.checkpoint().to_json()))
        resumed.train()

        assert np.array_equal(
            resumed.model.flat_parameters(), full.model.flat_parameters()
        )
        assert resumed.deadline.rounds == full.deadline.rounds
        assert resumed.deadline.total_stragglers == full.deadline.total_stragglers
        assert resumed.membership.state_dict() == full.membership.state_dict()
        assert resumed.hook.stats == full.hook.stats

    def test_same_seed_gives_the_same_checkpoint_bytes(self):
        # Nothing of the host's clock may reach the state: two runs of one
        # seed stopped at one round write the same checkpoint.
        scenario = scenario_by_name("worker-crash")
        blobs = []
        for _ in range(2):
            trainer = build_trainer(scenario, seed=7, epochs=1)
            trainer.train(max_rounds=3)
            blobs.append(trainer.checkpoint().to_json())
        assert blobs[0] == blobs[1]


class TestRestoreValidation:
    def test_label_mismatch(self):
        trainer = small_trainer()
        ckpt = trainer.checkpoint()
        other = small_trainer(label="other")
        with pytest.raises(ValueError, match="checkpoint is for"):
            other.restore(ckpt)

    def test_seed_mismatch(self):
        ckpt = small_trainer(seed=0).checkpoint()
        with pytest.raises(ValueError, match="seed"):
            small_trainer(seed=1).restore(ckpt)

    def test_removed_channel_stat_is_refused(self):
        trainer = small_trainer()
        trainer.train(max_rounds=1)
        ckpt = trainer.checkpoint()
        ckpt.channel_stats["encode_seconds"] = 0.25
        with pytest.raises(ValueError, match="unknown channel stat 'encode_seconds'"):
            small_trainer().restore(ckpt)

    def test_optimizer_without_state_dict(self):
        from repro.nn.optim import Adam

        trainer = small_trainer()
        trainer.optimizer = Adam(trainer.model.parameters())
        with pytest.raises(TypeError, match="state_dict"):
            trainer.checkpoint()


class TestRejoin:
    def test_bounded_crash_evicts_then_readmits(self):
        """A crash window that closes: the worker is evicted, then
        broadcast back in, and the run records both transitions."""
        from repro.faults import FaultSpec
        from repro.resilience import WorkerFaultPlan

        resilience = ResilienceConfig(
            plan=WorkerFaultPlan(
                specs=(FaultSpec("crash", "worker:1", start_s=0.0, stop_s=0.3),)
            ),
            evict_after=2,
        )
        trainer = small_trainer(epochs=4, resilience=resilience)
        history = trainer.train()
        assert sum(r.evictions for r in history.records) == 1
        assert sum(r.rejoins for r in history.records) == 1
        assert not trainer.membership.is_dead(1)

    def test_rejoin_disabled(self):
        from repro.faults import FaultSpec
        from repro.resilience import WorkerFaultPlan

        resilience = ResilienceConfig(
            plan=WorkerFaultPlan(
                specs=(FaultSpec("crash", "worker:1", start_s=0.0, stop_s=0.3),)
            ),
            evict_after=2,
            rejoin=False,
        )
        trainer = small_trainer(epochs=4, resilience=resilience)
        history = trainer.train()
        assert sum(r.rejoins for r in history.records) == 0
        assert trainer.membership.is_dead(1)
