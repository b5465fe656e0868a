import hashlib
import math

import numpy as np
import pytest

from _oracles import named_gradients
from gmc.errors import ConfigError, DegenerateVectorError, NumericError, ShapeError
from gmc.loss import RepresentationBatch, contrastive_loss
from gmc.model import (
    EncoderSpec,
    GmcModel,
    TrainConfig,
    batch_loss,
    train,
)
from gmc.synthdata import SynthConfig, generate


def tiny_model(seed=0):
    return GmcModel.build((6, 5), d=4, s=4, hidden=4, seed=seed)


def tiny_dataset(seed=0, n=32):
    return generate(
        SynthConfig(
            n_samples=n, n_classes=3, modality_dims=(6, 5), style_dim=2, seed=seed,
            train_fraction=0.75,
        )
    )


class TestEncoderSpec:
    def test_defaults_fill_swish_hidden(self):
        spec = EncoderSpec((20, 64, 8))
        assert spec.activations == ("swish",)
        assert spec.input_dim == 20 and spec.output_dim == 8
        assert spec.layer_count == 2

    def test_parameter_count_closed_form(self):
        spec = EncoderSpec((20, 64, 8))
        assert spec.parameter_count() == 20 * 64 + 64 + 64 * 8 + 8

    @pytest.mark.parametrize(
        "widths, acts, key",
        [
            ((20,), None, "widths"),
            ((20, 0, 8), None, "widths"),
            ((20, 64, 8), ("swish", "swish"), "activations"),
            ((20, 64, 8), ("tanh",), "activations"),
        ],
    )
    def test_rejects_bad_spec(self, widths, acts, key):
        with pytest.raises(ConfigError) as exc:
            EncoderSpec(widths, acts)
        assert key in str(exc.value)


class TestModelConstruction:
    def test_build_shapes(self):
        model = GmcModel.build((20, 16, 12))
        assert model.modality_count == 3
        assert model.modality_dims == (20, 16, 12)
        assert model.d == 64 and model.s == 64
        assert model.base_specs[-1].input_dim == 48

    def test_parameter_count_matches_closed_form(self):
        model = GmcModel.build((20, 16, 12), d=64, s=64, hidden=64)
        expected = sum(
            spec.parameter_count() for spec in (*model.base_specs, model.head_spec)
        )
        by_hand = 0
        for input_dim in (20, 16, 12, 48, 64):  # three modalities, complete, head
            by_hand += input_dim * 64 + 64 + 64 * 64 + 64
        assert model.parameter_count() == expected == by_hand

    def test_complete_width_must_be_sum(self):
        specs = [EncoderSpec((3, 4, 4)), EncoderSpec((2, 4, 4)), EncoderSpec((6, 4, 4))]
        with pytest.raises(ConfigError):
            GmcModel(specs, EncoderSpec((4, 4, 4)))

    def test_head_width_must_match_d(self):
        specs = [EncoderSpec((3, 4, 4)), EncoderSpec((2, 4, 4)), EncoderSpec((5, 4, 4))]
        with pytest.raises(ConfigError):
            GmcModel(specs, EncoderSpec((8, 4, 4)))

    def test_replace_parameters_validation(self):
        model = tiny_model()
        with pytest.raises(ConfigError):
            model.replace_parameters({"nonsense": np.zeros(3)})
        with pytest.raises(ShapeError):
            model.replace_parameters({"head/b1": np.zeros(99)})


class TestEncode:
    def test_shapes_and_intermediate(self):
        model = tiny_model()
        x = np.ones((5, 6))
        z = model.encode_modality(0, x)
        assert z.shape == (5, 4)
        zc = model.encode_complete(np.ones((5, 11)))
        assert zc.shape == (5, 4)

    def test_unknown_modality_and_width_mismatch(self):
        model = tiny_model()
        with pytest.raises(ConfigError):
            model.encode_modality(7, np.ones((2, 6)))
        with pytest.raises(ShapeError):
            model.encode_modality(0, np.ones((2, 9)))
        with pytest.raises(ShapeError):
            model.encode_complete(np.ones((2, 3)))

    def test_pathway_dispatch(self):
        model = tiny_model()
        np.testing.assert_array_equal(
            model.encode_pathway(1, np.ones((2, 5))),
            model.encode_modality(1, np.ones((2, 5))),
        )
        np.testing.assert_array_equal(
            model.encode_pathway("complete", np.ones((2, 11))),
            model.encode_complete(np.ones((2, 11))),
        )

    def test_zero_final_projection_layer_gives_zero_rows(self):
        model = tiny_model()
        last = model.head_spec.layer_count - 1
        model.replace_parameters(
            {
                f"head/w{last}": np.zeros((4, 4)),
                f"head/b{last}": np.zeros(4),
            }
        )
        z = model.encode_modality(0, np.random.default_rng(0).normal(size=(6, 6)))
        assert np.all(z == 0.0)
        # and the loss flags such degenerate latents rather than dividing by ~0
        with pytest.raises(DegenerateVectorError):
            per_modality = [model.encode_modality(m, np.ones((4, w))) for m, w in enumerate((6, 5))]
            contrastive_loss(RepresentationBatch(per_modality, model.encode_complete(np.ones((4, 11)))), 0.1, False)

    def test_identical_rows_give_identical_outputs(self):
        model = tiny_model()
        x = np.tile(np.array([[0.3, -1.2, 0.5, 0.1, 2.0, -0.7]]), (4, 1))
        z = model.encode_modality(0, x)
        assert np.all(z == z[0])

    def test_golden_values_fixed_seed_fixed_input(self):
        # frozen at first build; any drift in init streams, layer order or
        # primitive arithmetic shows up here
        model = GmcModel.build((5, 3), d=8, s=8, hidden=8, seed=42)
        z = model.encode_modality(0, np.linspace(-1.0, 1.0, 20).reshape(4, 5))
        assert (
            hashlib.sha256(z.tobytes()).hexdigest()
            == "df42f83dc5994a3ec0f7bf9058c16aa7afe6aa4ea7473700f8a0e31fdd88fafe"
        )
        zc = model.encode_complete(np.linspace(-1.0, 1.0, 32).reshape(4, 8))
        assert (
            hashlib.sha256(zc.tobytes()).hexdigest()
            == "c1d5246829d3245a8293ab001c06ef4803baa82acdf36e3059bc42210fad0a8c"
        )

    def test_same_seed_same_init(self):
        a, b = tiny_model(seed=9), tiny_model(seed=9)
        for name, p in a.parameters().items():
            assert p.tobytes() == b.parameters()[name].tobytes()

    def test_shared_head_serves_every_pathway(self):
        model = tiny_model()
        rng_ = np.random.default_rng(1)
        inputs = [rng_.normal(size=(3, 6)), rng_.normal(size=(3, 5)), rng_.normal(size=(3, 11))]
        before = [
            model.encode_modality(0, inputs[0]),
            model.encode_modality(1, inputs[1]),
            model.encode_complete(inputs[2]),
        ]
        model.replace_parameters({"head/w0": model.parameters()["head/w0"] + 0.5})
        after = [
            model.encode_modality(0, inputs[0]),
            model.encode_modality(1, inputs[1]),
            model.encode_complete(inputs[2]),
        ]
        for z0, z1 in zip(before, after):
            assert not np.array_equal(z0, z1)


class TestGradientEndToEnd:
    def test_every_parameter_matches_central_differences(self):
        # tiny model, full finite-difference sweep over all parameters
        model = tiny_model(seed=3)
        ds = tiny_dataset(seed=3, n=8)
        xs = [ds.modality(m, "all") for m in range(2)]
        xc = ds.complete_view("all")

        _, backward = batch_loss(model, xs, xc, 0.1)
        backward()
        analytic = {name: g.copy() for name, g in named_gradients(model).items()}

        step = 1e-6
        worst = 0.0
        for name, p in model.parameters().items():
            base = p.copy()
            flat = base.ravel()
            for k in range(flat.size):
                for sign in (+1.0, -1.0):
                    bumped = base.copy()
                    bumped.ravel()[k] = flat[k] + sign * step
                    model.replace_parameters({name: bumped})
                    if sign > 0:
                        f_plus = batch_loss(model, xs, xc, 0.1)[0]
                    else:
                        f_minus = batch_loss(model, xs, xc, 0.1)[0]
                fd = (f_plus - f_minus) / (2 * step)
                an = analytic[name].ravel()[k]
                worst = max(worst, abs(an - fd) / max(1.0, abs(an)))
            model.replace_parameters({name: base})
        assert worst < 1e-5, f"worst relative gradient error {worst:.2e}"


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs, key",
        [
            ({"epochs": 0}, "epochs"),
            ({"batch_size": 1}, "batch_size"),
            ({"learning_rate": -1.0}, "learning_rate"),
            ({"tau": 0.0}, "tau"),
            ({"loss_variant": "contrastive"}, "loss_variant"),
            ({"optimizer": "lbfgs"}, "optimizer"),
            ({"epochs": 1.5}, "epochs"),
            ({"epochs": True}, "epochs"),
            ({"batch_size": 64.5}, "batch_size"),
            ({"seed": 1.0}, "seed"),
            ({"seed": False}, "seed"),
            ({"adam_beta1": "x"}, "adam_beta1"),
            ({"learning_rate": math.nan}, "learning_rate"),
            ({"tau": math.inf}, "tau"),
            ({"tau": True}, "tau"),
            ({"adam_beta1": 1.0}, "adam_beta1"),
            ({"adam_beta2": -0.1}, "adam_beta2"),
            ({"adam_eps": 0.0}, "adam_eps"),
        ],
    )
    def test_rejects_bad_field(self, kwargs, key):
        with pytest.raises(ConfigError) as exc:
            TrainConfig(**kwargs)
        assert key in str(exc.value)

    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.epochs, cfg.batch_size, cfg.learning_rate, cfg.tau) == (100, 64, 1e-3, 0.1)


class TestTraining:
    def test_zero_learning_rate_freezes_parameters(self):
        model = tiny_model()
        before = {k: p.copy() for k, p in model.parameters().items()}
        ds = tiny_dataset()
        n_train = int(ds.is_train.sum())
        result = train(
            model, ds, TrainConfig(epochs=5, batch_size=n_train, learning_rate=0.0)
        )
        for k, p in model.parameters().items():
            assert p.tobytes() == before[k].tobytes()
        assert len(set(result.epoch_losses)) == 1  # full-batch: trace exactly constant

    def test_fixed_batch_loss_decreases_over_50_step_windows(self):
        model = tiny_model(seed=1)
        ds = tiny_dataset(seed=1)
        n_train = int(ds.is_train.sum())
        result = train(model, ds, TrainConfig(epochs=200, batch_size=n_train))
        trace = result.epoch_losses
        assert result.steps == 200
        assert all(np.isfinite(trace))
        for k in range(len(trace) - 50):
            assert trace[k + 50] < trace[k], f"no decrease across window starting at {k}"

    def test_same_seed_identical_traces_and_parameters(self):
        results = []
        for _ in range(2):
            model = tiny_model(seed=2)
            ds = tiny_dataset(seed=2)
            results.append((train(model, ds, TrainConfig(epochs=3, batch_size=8)), model))
        (r0, m0), (r1, m1) = results
        assert r0.epoch_losses == r1.epoch_losses
        assert r0.epoch_term_means == r1.epoch_term_means
        for k, p in m0.parameters().items():
            assert p.tobytes() == m1.parameters()[k].tobytes()

    def test_term_means_divide_by_positive_term_count(self):
        model = tiny_model()
        ds = tiny_dataset()
        n_train = int(ds.is_train.sum())
        result = train(model, ds, TrainConfig(epochs=1, batch_size=n_train))
        m_count = model.modality_count
        assert result.epoch_term_means[0] == pytest.approx(
            result.epoch_losses[0] / (m_count * n_train)
        )

    def test_ablated_variant_trains(self):
        model = tiny_model()
        result = train(model, tiny_dataset(), TrainConfig(epochs=2, batch_size=8, loss_variant="ablated"))
        assert all(np.isfinite(result.epoch_losses))

    def test_sgd_optimizer_also_learns(self):
        model = tiny_model()
        ds = tiny_dataset()
        result = train(
            model, ds, TrainConfig(epochs=30, batch_size=24, optimizer="sgd", learning_rate=1e-2)
        )
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_modality_count_mismatch_rejected(self):
        model = GmcModel.build((6, 5, 4), d=4, s=4, hidden=4)
        with pytest.raises(ConfigError):
            train(model, tiny_dataset(), TrainConfig(epochs=1))

    def test_non_finite_loss_aborts_with_step_context(self):
        # the loss is scale-invariant in z, so no learning rate can blow it
        # up through the optimizer; poison a weight to exercise the abort
        model = tiny_model()
        w0 = model.parameters()["head/w0"].copy()
        w0[0, 0] = np.nan
        model.replace_parameters({"head/w0": w0})
        with pytest.raises(NumericError) as exc:
            train(model, tiny_dataset(), TrainConfig(epochs=1, batch_size=8))
        assert exc.value.epoch == 0 and exc.value.step == 0
        assert "seed" in str(exc.value)

    def test_partial_trailing_batch_of_one_is_dropped(self):
        ds = generate(
            SynthConfig(n_samples=12, n_classes=2, modality_dims=(4, 3), style_dim=1,
                        train_fraction=0.75)  # 9 train samples
        )
        model = GmcModel.build((4, 3), d=4, s=4, hidden=4)
        result = train(model, ds, TrainConfig(epochs=2, batch_size=4))
        # 9 = 4 + 4 + 1; the size-1 remainder has no negatives and is skipped
        assert result.steps == 4
