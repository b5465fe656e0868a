import math
import tracemalloc

import numpy as np
import pytest

from gmc import rng
from gmc.downstream import (
    ProbeClassifier,
    ProbeConfig,
    ProbeLoss,
    RobustnessTable,
    evaluate_robustness,
    train_probe,
)
from gmc.errors import ConfigError, NumericError, ShapeError
from gmc.model import GmcModel, TrainConfig, fit, train
from gmc.synthdata import MultimodalDataset, SynthConfig, generate
from gmc.tensor import Tape, softmax_cross_entropy_backward, softmax_cross_entropy_forward


def ce_oracle(logits, y):
    shifted = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    return -float(np.mean(np.log(p[np.arange(len(y)), y])))


def two_clusters(n_per=100, seed=0):
    gen = np.random.default_rng(seed)
    z0 = gen.normal(size=(n_per, 4)) * 0.1 + np.array([3.0, 0, 0, 0])
    z1 = gen.normal(size=(n_per, 4)) * 0.1 - np.array([3.0, 0, 0, 0])
    return np.concatenate([z0, z1]), np.array([0] * n_per + [1] * n_per)


def onehot_rows(y, c):
    onehot = np.zeros((len(y), c))
    onehot[np.arange(len(y)), y] = 1.0
    return onehot


def cross_entropy(logits, y):
    return softmax_cross_entropy_forward(logits, onehot_rows(y, logits.shape[1]))[0]


class TestCrossEntropy:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_oracle(self, seed):
        gen = np.random.default_rng(seed)
        logits = gen.normal(size=(7, 5)) * gen.uniform(0.5, 8.0)
        y = gen.integers(5, size=7)
        assert cross_entropy(logits, y) == pytest.approx(ce_oracle(logits, y), abs=1e-12)

    def test_gradient_matches_central_differences(self):
        gen = np.random.default_rng(3)
        logits = gen.normal(size=(6, 4)) * 3
        y = gen.integers(4, size=6)
        onehot = onehot_rows(y, 4)
        _, saved = softmax_cross_entropy_forward(logits, onehot)
        grad = softmax_cross_entropy_backward(np.ones(()), onehot, saved)
        h = 1e-6
        for k in range(logits.size):
            hi, lo = logits.copy(), logits.copy()
            hi.ravel()[k] += h
            lo.ravel()[k] -= h
            fd = (ce_oracle(hi, y) - ce_oracle(lo, y)) / (2 * h)
            assert abs(fd - grad.ravel()[k]) / max(1.0, abs(fd)) < 1e-8

    def test_shift_invariance_is_exact(self):
        # the max-shift trick must not change the value at all
        gen = np.random.default_rng(1)
        logits = gen.normal(size=(4, 3))
        y = np.array([0, 2, 1, 1])
        a = cross_entropy(logits, y)
        b = cross_entropy(logits + 1000.0, y)
        assert a == pytest.approx(b, abs=1e-9)

    def test_one_hot_costs_no_identity(self):
        # a C x C identity at C = 20,000 would be 3.2 GB; a probe step's
        # workspace holds five (B, C) arrays of 640 KB each, and the step
        # makes one more for the picked logits
        b, c = 4, 20_000
        probe = ProbeClassifier(3, c, hidden=(2,))
        loss_fn = ProbeLoss(probe, np.zeros((b, 3)), np.array([0, 1, c - 2, c - 1]))
        tracemalloc.start()
        try:
            value, backward = loss_fn(np.arange(b))
            backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        assert value == pytest.approx(math.log(c), rel=1e-12)

    def test_rejects_bad_labels(self):
        probe = ProbeClassifier(2, 2, hidden=(3,))
        with pytest.raises(ConfigError):
            ProbeLoss(probe, np.zeros((3, 2)), np.array([0, 1, 2]))
        with pytest.raises(ConfigError):
            ProbeLoss(probe, np.zeros((3, 2)), np.array([0, -1, 1]))
        with pytest.raises(ShapeError):
            ProbeLoss(probe, np.zeros((3, 2)), np.array([0, 1]))


class TestProbeClassifier:
    def test_shapes_and_validation(self):
        probe = ProbeClassifier(8, 5, hidden=(16, 8), seed=0)
        assert probe.latent_dim == 8 and probe.n_classes == 5
        assert probe.logits(np.zeros((3, 8))).shape == (3, 5)
        assert probe.predict(np.zeros((3, 8))).shape == (3,)
        with pytest.raises(ShapeError):
            probe.logits(np.zeros((3, 9)))
        with pytest.raises(ConfigError):
            ProbeClassifier(8, 1)

    def test_default_shape_mirrors_reporting_layout(self):
        probe = ProbeClassifier(64, 10)
        assert probe.spec.widths == (64, 256, 128, 10)
        assert probe.spec.activations == ("relu", "relu")

    def test_accuracy_is_exact_frequency(self):
        probe = ProbeClassifier(4, 3, hidden=(4,), seed=0)
        z = np.random.default_rng(0).normal(size=(40, 4))
        pred = probe.predict(z)
        y = pred.copy()
        y[:10] = (y[:10] + 1) % 3  # exactly 10 of 40 wrong
        assert probe.accuracy(z, y) == 0.75


class TestProbeConfig:
    @pytest.mark.parametrize(
        "kwargs, key",
        [
            ({"epochs": 0}, "epochs"),
            ({"batch_size": 0}, "batch_size"),
            ({"learning_rate": -1e-3}, "learning_rate"),
            ({"hidden": (0,)}, "hidden"),
            ({"optimizer": "rmsprop"}, "optimizer"),
            ({"epochs": 1.5}, "epochs"),
            ({"epochs": True}, "epochs"),
            ({"batch_size": 64.5}, "batch_size"),
            ({"seed": 0.5}, "seed"),
            ({"hidden": (1.5,)}, "hidden"),
            ({"hidden": (16, True)}, "hidden"),
            ({"learning_rate": math.inf}, "learning_rate"),
            ({"learning_rate": True}, "learning_rate"),
            ({"adam_beta1": "0.9"}, "adam_beta1"),
            ({"adam_beta2": 1.0}, "adam_beta2"),
            ({"adam_eps": -1e-8}, "adam_eps"),
        ],
    )
    def test_rejects_bad_field(self, kwargs, key):
        with pytest.raises(ConfigError) as exc:
            ProbeConfig(**kwargs)
        assert key in str(exc.value)

    def test_defaults(self):
        cfg = ProbeConfig()
        assert (cfg.epochs, cfg.learning_rate, cfg.hidden) == (50, 1e-3, (256, 128))


class TestTrainProbe:
    def test_separated_clusters_reach_near_zero_training_loss(self):
        z, y = two_clusters()
        probe = train_probe(z, y)
        assert probe.training_losses[-1] < 1e-3
        assert probe.accuracy(z, y) == 1.0

    def test_zero_learning_rate_keeps_init_accuracy(self):
        z, y = two_clusters(seed=1)
        init = ProbeClassifier(4, 2, seed=5)
        init_acc = init.accuracy(z, y)
        trained = train_probe(z, y, config=ProbeConfig(learning_rate=0.0, seed=5, epochs=3))
        assert trained.accuracy(z, y) == init_acc
        for name, p in trained.parameters().items():
            assert p.tobytes() == init.parameters()[name].tobytes()

    def test_fixed_seed_deterministic_parameters(self):
        z, y = two_clusters(seed=2)
        a = train_probe(z, y, config=ProbeConfig(epochs=5, seed=9))
        b = train_probe(z, y, config=ProbeConfig(epochs=5, seed=9))
        for name, p in a.parameters().items():
            assert p.tobytes() == b.parameters()[name].tobytes()
        assert a.training_losses == b.training_losses

    def test_infers_class_count(self):
        z, y = two_clusters(seed=3)
        probe = train_probe(z, y, config=ProbeConfig(epochs=1))
        assert probe.n_classes == 2

    def test_non_finite_latents_abort_with_context(self):
        z, y = two_clusters(seed=4)
        z[0, 0] = np.nan
        with pytest.raises(NumericError) as exc:
            train_probe(z, y, config=ProbeConfig(epochs=1))
        assert exc.value.epoch == 0 and exc.value.step is not None

    def test_mismatched_rows_rejected(self):
        with pytest.raises(ShapeError):
            train_probe(np.zeros((5, 3)), np.zeros(4, dtype=int))

    def test_bad_label_in_a_later_batch_fails_before_any_step(self, monkeypatch):
        z, y = two_clusters(seed=5)
        config = ProbeConfig(epochs=1, batch_size=16, seed=3)
        last = rng.stream(config.seed, rng.PROBE_SHUFFLE, 0).permutation(len(y))[-1]
        y[last] = 2  # in the last batch of the first epoch; the probe has 2 classes
        steps = []
        monkeypatch.setattr(Tape, "backward", lambda tape: steps.append(tape))
        with pytest.raises(ConfigError, match="class index"):
            train_probe(z, y, n_classes=2, config=config)
        assert steps == []

    def test_training_leaves_earlier_parameter_arrays_unchanged(self):
        """`fit` trains in place, but over its own copy of the buffer: the
        arrays `parameters()` returned before keep their bytes, for the
        probe loop of `train_probe` and for `train`."""
        z, y = two_clusters(seed=6)
        probe = ProbeClassifier(4, 2, hidden=(8,), seed=1)
        model = GmcModel.build((8, 6), d=4, s=4, hidden=4, seed=0)
        ds = generate(SynthConfig(n_samples=60, n_classes=3, modality_dims=(8, 6), style_dim=2, seed=0))

        def train_the_probe():
            fit(probe, ProbeLoss(probe, z, y), len(y), ProbeConfig(epochs=2), rng.PROBE_SHUFFLE, 1, "probe loss")

        for params, run in (
            (probe, train_the_probe),
            (model, lambda: train(model, ds, TrainConfig(epochs=2, batch_size=16))),
        ):
            before = params.parameters()
            saved = {name: p.tobytes() for name, p in before.items()}
            run()
            for name, p in before.items():
                assert p.tobytes() == saved[name] and not p.flags.writeable, name
            after = params.parameters()
            assert all(after[name] is not p for name, p in before.items())
            assert params.flat_parameters().tobytes() != b"".join(saved.values())
            assert not params.flat_parameters().flags.writeable


class TestStepRecord:
    """The benchmark (`perfbench/`) counts training steps through calls of
    `gmc.tensor.Tape.backward` and reads `len(tape)` as the nodes of a
    step: `fit` makes one call a step, on a tape of one node, in both
    training loops."""

    @staticmethod
    def _record(monkeypatch):
        nodes = []
        original = Tape.backward

        def backward(tape):
            nodes.append(len(tape))
            original(tape)

        monkeypatch.setattr(Tape, "backward", backward)
        return nodes

    @pytest.mark.parametrize("n, batch_size", [(9, 4), (10, 4), (8, 4), (5, 64), (7, 2)])
    def test_one_call_per_gmc_step(self, monkeypatch, n, batch_size):
        # 9 = 4 + 4 + 1 and 7 = 2 + 2 + 2 + 1: a trailing batch of 1 is dropped
        gen = np.random.default_rng(n)
        mats = [gen.normal(size=(n, 3)), gen.normal(size=(n, 2))]
        ds = MultimodalDataset(mats, np.zeros(n, dtype=np.int64), np.ones(n, dtype=bool), np.concatenate(mats, axis=1))
        model = GmcModel.build((3, 2), d=4, s=4, hidden=4, seed=0)
        before = model.flat_parameters().copy()
        nodes = self._record(monkeypatch)
        epochs = 3
        result = train(model, ds, TrainConfig(epochs=epochs, batch_size=batch_size))
        assert nodes == [1] * (epochs * (n // batch_size + (n % batch_size >= 2)))
        assert result.steps == len(nodes)
        assert model.flat_parameters().tobytes() != before.tobytes()

    @pytest.mark.parametrize("n, batch_size", [(9, 4), (8, 4), (5, 64), (3, 1)])
    def test_one_call_per_probe_step(self, monkeypatch, n, batch_size):
        z, y = np.random.default_rng(n).normal(size=(n, 3)), np.arange(n) % 2
        nodes = self._record(monkeypatch)
        epochs = 3
        probe = train_probe(z, y, 2, ProbeConfig(epochs=epochs, batch_size=batch_size, hidden=(4,)))
        assert nodes == [1] * (epochs * math.ceil(n / batch_size))
        assert probe.flat_parameters().tobytes() != ProbeClassifier(3, 2, hidden=(4,)).flat_parameters().tobytes()


@pytest.fixture(scope="module")
def small_trained():
    ds = generate(
        SynthConfig(n_samples=300, n_classes=4, modality_dims=(8, 6), style_dim=2, seed=0)
    )
    model = GmcModel.build((8, 6), d=16, s=16, hidden=16, seed=0)
    train(model, ds, TrainConfig(epochs=15, batch_size=32, seed=0))
    z_train = model.encode_complete(ds.complete_view("train"))
    probe = train_probe(z_train, ds.labels_view("train"), 4, ProbeConfig(seed=0))
    return ds, model, probe, z_train


class TestEvaluateRobustness:
    def test_table_layout_and_ranges(self, small_trained):
        ds, model, probe, _ = small_trained
        table = evaluate_robustness(model, probe, ds)
        assert set(table.accuracies) == {"complete", "modality_1", "modality_2"}
        assert all(0.0 <= v <= 1.0 for v in table.accuracies.values())
        assert table.complete == table["complete"]
        assert table.worst_modality() == min(table.modality(1), table.modality(2))

    def test_probe_on_own_training_inputs_beats_test_complete(self, small_trained):
        ds, model, probe, z_train = small_trained
        train_acc = probe.accuracy(z_train, ds.labels_view("train"))
        table = evaluate_robustness(model, probe, ds, split="test")
        assert train_acc >= table.complete

    def test_untrained_probe_sits_at_chance(self):
        # the probe never saw labels, so its accuracy has chance-level
        # expectation; class clustering inflates the variance well past
        # binomial, hence the generous 2x-chance ceiling
        ds = generate(SynthConfig())
        model = GmcModel.build(ds.config.modality_dims, seed=0)
        probe = ProbeClassifier(model.s, 10, seed=0)
        table = evaluate_robustness(model, probe, ds)
        for value in table.accuracies.values():
            assert value < 0.2

    def test_latent_dim_mismatch_rejected(self, small_trained):
        ds, model, _, _ = small_trained
        with pytest.raises(ShapeError):
            evaluate_robustness(model, ProbeClassifier(5, 4), ds)

    def test_split_selects_rows(self, small_trained):
        ds, model, probe, _ = small_trained
        test_table = evaluate_robustness(model, probe, ds, "test")
        all_table = evaluate_robustness(model, probe, ds, "all")
        assert test_table.accuracies != all_table.accuracies


def test_robustness_table_is_plain_data():
    table = RobustnessTable({"complete": 0.9, "modality_1": 0.8})
    assert table.modality(1) == 0.8
    assert table.worst_modality() == 0.8
