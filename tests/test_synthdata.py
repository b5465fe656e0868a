import numpy as np
import pytest

from gmc.errors import ConfigError
from gmc.synthdata import MultimodalDataset, SynthConfig, class_templates, generate, style_mixers


def lstsq_probe_accuracy(x_train, y_train, x_test, y_test, n_classes):
    """Independent linear classifier: least-squares onto one-hot targets.

    Deliberately not a gradient method so dataset learnability is certified
    without trusting anything else in this package.
    """
    ones = np.ones((x_train.shape[0], 1))
    a = np.concatenate([x_train, ones], axis=1)
    targets = np.eye(n_classes)[y_train]
    w, *_ = np.linalg.lstsq(a, targets, rcond=None)
    scores = np.concatenate([x_test, np.ones((x_test.shape[0], 1))], axis=1) @ w
    return float(np.mean(np.argmax(scores, axis=1) == y_test))


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = SynthConfig()
        assert cfg.n_classes == 10
        assert cfg.modality_dims == (20, 16, 12)

    @pytest.mark.parametrize(
        "kwargs, key",
        [
            ({"n_classes": 1}, "n_classes"),
            ({"modality_dims": (20,)}, "modality_dims"),
            ({"modality_dims": (20, 0)}, "modality_dims"),
            ({"style_dim": -1}, "style_dim"),
            ({"noise_sigma": -0.1}, "noise_sigma"),
            ({"noise_sigma": (0.1, 0.1)}, "noise_sigma"),  # 2 sigmas, 3 modalities
            ({"train_fraction": 0.0}, "train_fraction"),
            ({"train_fraction": 1.0}, "train_fraction"),
            ({"n_samples": 1}, "n_samples"),
            ({"n_samples": 100.5}, "n_samples"),
            ({"n_classes": 4.0}, "n_classes"),
            ({"style_dim": True}, "style_dim"),
            ({"seed": 1.5}, "seed"),
            ({"modality_dims": (20, 16.5)}, "modality_dims"),
        ],
    )
    def test_rejects_bad_field(self, kwargs, key):
        with pytest.raises(ConfigError) as exc:
            cfg = SynthConfig(**kwargs)
            cfg.sigmas()  # length mismatch surfaces on expansion
        assert key in str(exc.value)

    def test_per_modality_sigma_accepted(self):
        cfg = SynthConfig(noise_sigma=(0.1, 0.0, 0.2))
        assert cfg.sigmas() == (0.1, 0.0, 0.2)

    def test_scalar_sigma_broadcasts(self):
        assert SynthConfig(noise_sigma=0.3).sigmas() == (0.3, 0.3, 0.3)


class TestGenerateShapes:
    def test_shapes_and_alignment(self):
        cfg = SynthConfig(n_samples=50)
        ds = generate(cfg)
        assert ds.n_samples == 50
        assert ds.modality_count == 3
        for x, dim in zip(ds.modalities, cfg.modality_dims):
            assert x.shape == (50, dim)
        assert ds.complete.shape == (50, sum(cfg.modality_dims))
        # complete is the exact per-sample concatenation, never row-shuffled
        np.testing.assert_array_equal(ds.complete, np.concatenate(ds.modalities, axis=1))
        assert ds.labels.shape == (50,)
        assert ds.labels.min() >= 0 and ds.labels.max() < cfg.n_classes

    def test_split_sizes(self):
        ds = generate(SynthConfig(n_samples=100, train_fraction=0.8))
        assert int(ds.is_train.sum()) == 80
        assert ds.modality(0, "train").shape[0] == 80
        assert ds.modality(0, "test").shape[0] == 20
        assert ds.modality(0, "all").shape[0] == 100
        assert ds.labels_view("test").shape[0] == 20
        assert ds.complete_view("train").shape[0] == 80

    def test_unknown_split_rejected(self):
        ds = generate(SynthConfig(n_samples=10))
        with pytest.raises(ConfigError):
            ds.modality(0, "validation")


class TestDeterminism:
    def test_same_config_bit_identical(self):
        a = generate(SynthConfig(seed=7, n_samples=64))
        b = generate(SynthConfig(seed=7, n_samples=64))
        for xa, xb in zip(a.modalities, b.modalities):
            assert xa.tobytes() == xb.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_different_seed_differs(self):
        a = generate(SynthConfig(seed=0, n_samples=64))
        b = generate(SynthConfig(seed=1, n_samples=64))
        assert a.modalities[0].tobytes() != b.modalities[0].tobytes()

    def test_generation_is_order_independent(self):
        # sample i is a pure function of (config, i): a shorter run is a prefix
        big = generate(SynthConfig(seed=3, n_samples=100))
        small = generate(SynthConfig(seed=3, n_samples=40))
        np.testing.assert_array_equal(big.labels[:40], small.labels)
        for m in range(3):
            np.testing.assert_array_equal(big.modalities[m][:40], small.modalities[m])


class TestRenderingStructure:
    def test_noiseless_styleless_class_rendering_is_constant(self):
        cfg = SynthConfig(noise_sigma=0.0, style_dim=0, n_samples=200, seed=5)
        ds = generate(cfg)
        templates = class_templates(cfg)
        for m in range(ds.modality_count):
            for cls in range(cfg.n_classes):
                rows = ds.modalities[m][ds.labels == cls]
                assert rows.shape[0] > 0
                np.testing.assert_array_equal(rows, np.broadcast_to(rows[0], rows.shape))
                np.testing.assert_allclose(rows[0], templates[m][:, cls], atol=1e-15)

    def test_style_is_shared_across_modalities(self):
        # with sigma = 0 the residual after removing the class template is
        # exactly B_m @ style, so recovering style from modality 0 must
        # reproduce the residuals of every other modality
        cfg = SynthConfig(noise_sigma=0.0, n_samples=100, seed=11)
        ds = generate(cfg)
        templates = class_templates(cfg)
        mixers = style_mixers(cfg)
        resid0 = ds.modalities[0] - templates[0][:, ds.labels].T
        styles, *_ = np.linalg.lstsq(mixers[0], resid0.T, rcond=None)
        for m in range(1, ds.modality_count):
            resid = ds.modalities[m] - templates[m][:, ds.labels].T
            np.testing.assert_allclose(resid, (mixers[m] @ styles).T, atol=1e-9)

    def test_noise_scale_matches_sigma(self):
        cfg = SynthConfig(noise_sigma=(0.5, 0.0, 0.05), n_samples=500, seed=2)
        noisy = generate(cfg)
        clean = generate(SynthConfig(noise_sigma=0.0, n_samples=500, seed=2))
        for m, sigma in enumerate(cfg.sigmas()):
            resid = noisy.modalities[m] - clean.modalities[m]
            if sigma == 0.0:
                assert np.all(resid == 0.0)
            else:
                assert abs(resid.std() - sigma) < 0.1 * sigma

    def test_template_scaling(self):
        # entries are standard normal over 1/sqrt(dim); check second moment
        cfg = SynthConfig(modality_dims=(400, 300), seed=9)
        for m, dim in enumerate(cfg.modality_dims):
            a = class_templates(cfg)[m]
            assert a.shape == (dim, cfg.n_classes)
            assert abs(a.std() * np.sqrt(dim) - 1.0) < 0.1


class TestDatasetSanity:
    def test_default_config_linear_probe_above_95(self):
        # frozen dataset sanity constant: raw modality 0 alone is linearly
        # separable to > 95% test accuracy
        ds = generate(SynthConfig())
        acc = lstsq_probe_accuracy(
            ds.modality(0, "train"),
            ds.labels_view("train"),
            ds.modality(0, "test"),
            ds.labels_view("test"),
            10,
        )
        assert acc > 0.95, f"linear probe accuracy {acc:.3f}"

    def test_class_means_separated_beyond_5_sigma(self):
        cfg = SynthConfig()
        ds = generate(cfg)
        for m, sigma in enumerate(cfg.sigmas()):
            means = np.stack(
                [ds.modalities[m][ds.labels == c].mean(axis=0) for c in range(cfg.n_classes)]
            )
            dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
            off_diag = dists[~np.eye(cfg.n_classes, dtype=bool)]
            assert off_diag.min() > 5 * sigma

    def test_every_class_appears_in_both_splits(self):
        ds = generate(SynthConfig())
        assert set(ds.labels_view("train")) == set(range(10))
        assert set(ds.labels_view("test")) == set(range(10))


class TestLabelModality:
    def test_appends_exact_onehot(self):
        cfg = SynthConfig(label_modality=True, n_samples=30)
        ds = generate(cfg)
        assert ds.modality_count == 4
        assert ds.modalities[3].shape == (30, cfg.n_classes)
        np.testing.assert_array_equal(ds.modalities[3], np.eye(cfg.n_classes)[ds.labels])
        assert ds.complete.shape[1] == sum(cfg.modality_dims) + cfg.n_classes

    def test_off_by_default(self):
        assert SynthConfig().label_modality is False
        assert generate(SynthConfig(n_samples=10)).modality_count == 3

    def test_other_modalities_unchanged(self):
        with_label = generate(SynthConfig(label_modality=True, n_samples=40, seed=4))
        without = generate(SynthConfig(label_modality=False, n_samples=40, seed=4))
        for m in range(3):
            np.testing.assert_array_equal(with_label.modalities[m], without.modalities[m])
