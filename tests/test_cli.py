import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gmc.cli import main, pca_2d
from gmc.persist import load_checkpoint, read_matrix_csv, sha256_file

# Hashes of the default-config dataset, frozen at first build. A change here
# means generation order or formatting drifted and old manifests are stale.
GOLDEN_DEFAULT_DATASET = {
    "modality_1.csv": "af9022792535018f7efb6d288eaad679cd62323e706b4f93e3720e38d8ba519f",
    "modality_2.csv": "56750650a3394b0b4d2f2caa42e42bae0846c74aa9d9c0e88832400819c9e03c",
    "modality_3.csv": "ee9632e2ea2246dc32f36a2d1871526b2c8cc2a1e2c9a1b0775b77c3636a09e2",
    "labels.csv": "cc45c94331f2e4cf3ea4370535144b9d181d79ec57d5d1a486d3e0eed150fce5",
}

# Hashes of what training, the probe and the sweep write from the configs in
# TestGoldenTrainingOutputs, frozen before the training loops were merged.
# A change here means optimizer arithmetic, shuffle streams or an artifact
# format drifted.
GOLDEN_TRAINING_OUTPUTS = {
    "probe_adam/robustness.csv": "5d8bddb406e6be008daddaa3cf6f6c0e4f29e121574815f0ec61b4f7124b660f",
    "probe_sgd/robustness.csv": "6ca1f1456da9a0a4056d027b673c52f968551875705c09b72e691ce4f4f5cb0a",
    "run/checkpoint.gmc": "0249006b1e170ebf67cc288f04d8d70fac543d6e3b0234e7edcdd10f074b4ad0",
    "run/loss_trace.csv": "1319b7ffbff92173c4100787d5fcaacf8ec4513b942f87d7ac0878b093b123d8",
    "sgd/checkpoint.gmc": "cc15d86f36d52b102bf88f354b7b7f351c59fd71592182a018aae499be0559af",
    "sgd/loss_trace.csv": "39c90e1d5ef9c586c964b97708fc3edb320c29ddb3ab713950988afa5b7b984f",
    "sweep/aggregate.csv": "e232693e367fab7d455f8be49d88c1d18f3a5581bba8dc5e68c44eb123c8a5f6",
    "sweep/run_000_tau0.1_loss_variantfull/checkpoint.gmc": "141956c12377f55a886fafda56b8a71d1bec682cea72dffef07d8703951a6d34",
    "sweep/run_000_tau0.1_loss_variantfull/dca.csv": "e878c1dc01bceac43d41698d57a212250ca39bb7d292caff91647c5462fb77f9",
    "sweep/run_000_tau0.1_loss_variantfull/loss_trace.csv": "42ac6bc36652178f5d7edc27a1350e717ba48dd5f5a8a2289d97dc2dc7eddf80",
    "sweep/run_000_tau0.1_loss_variantfull/robustness.csv": "5dc73cde66250542b2b67466746afb114662ec4371de3211a53d4a83c375cc9f",
    "sweep/run_001_tau0.1_loss_variantablated/checkpoint.gmc": "4d1e9f00abae5e390039b72fe8599a89b8f4f01a59fe322a05e6c1b753ab5cda",
    "sweep/run_001_tau0.1_loss_variantablated/dca.csv": "46a0a79d81b771557cb64d3a2dc0308534af3480c565ea47474cca1399ac2e99",
    "sweep/run_001_tau0.1_loss_variantablated/loss_trace.csv": "f488af8c01aa70bb4a0fcb8ceb1d6f88466e6d2daaacd35be75f6244a400a11a",
    "sweep/run_001_tau0.1_loss_variantablated/robustness.csv": "5dc73cde66250542b2b67466746afb114662ec4371de3211a53d4a83c375cc9f",
    "sweep/run_002_tau0.2_loss_variantfull/checkpoint.gmc": "e8486e14b48c20a25115da03b33bbff9f893a092e6c2e70df5cb61c33de15502",
    "sweep/run_002_tau0.2_loss_variantfull/dca.csv": "ecf7db736ebd60a9871b54e2096bb265b5d4487b6c80393c7418feac0e03533e",
    "sweep/run_002_tau0.2_loss_variantfull/loss_trace.csv": "76c9d677438c531bb36b831ff0a246647691852d923478e71c7297472df9ed3e",
    "sweep/run_002_tau0.2_loss_variantfull/robustness.csv": "5dc73cde66250542b2b67466746afb114662ec4371de3211a53d4a83c375cc9f",
    "sweep/run_003_tau0.2_loss_variantablated/checkpoint.gmc": "4fa6ee2013c32011e7f3bf507b4134e2aef241a5bb8eb48cea4519d4a6c5ed69",
    "sweep/run_003_tau0.2_loss_variantablated/dca.csv": "59a14fda50f246c2ade55c6837a88ea8099c6b104ff54a2329feb26620a9f18d",
    "sweep/run_003_tau0.2_loss_variantablated/loss_trace.csv": "7082713fe2c1812f1e9073dc0cdec805253d826a867f6ba33918cf46aa2046b6",
    "sweep/run_003_tau0.2_loss_variantablated/robustness.csv": "5dc73cde66250542b2b67466746afb114662ec4371de3211a53d4a83c375cc9f",
}

SYNTH = {"n_samples": 200, "n_classes": 4, "modality_dims": [8, 6], "style_dim": 2, "seed": 3}
TRAIN = {
    "epochs": 3,
    "batch_size": 32,
    "tau": 0.1,
    "seed": 3,
    "model": {"d": 16, "s": 16, "hidden": 16},
}


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj))
    return str(path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One dataset and one short training run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    synth = write_json(root / "synth.json", SYNTH)
    train = write_json(root / "train.json", TRAIN)
    assert main(["gen-data", "--config", synth, "--out", str(root / "data")]) == 0
    assert (
        main(["train", "--config", train, "--dataset", str(root / "data"), "--out", str(root / "run")])
        == 0
    )
    return root


def _edit_header(blob, edit):
    """A checkpoint whose JSON header is replaced by edit(header)."""
    end = 8 + int.from_bytes(blob[4:8], "little")
    raw = json.dumps(edit(json.loads(blob[8:end]))).encode()
    return blob[:4] + len(raw).to_bytes(4, "little") + raw + blob[end:]


def run_encode(workdir, pathway, split, out):
    return main(
        [
            "encode",
            "--checkpoint",
            str(workdir / "run" / "checkpoint.gmc"),
            "--dataset",
            str(workdir / "data"),
            "--pathway",
            pathway,
            "--split",
            split,
            "--out",
            str(out),
        ]
    )


class TestGenData:
    def test_row_counts_match_config(self, workdir):
        for name in ("modality_1.csv", "modality_2.csv", "labels.csv"):
            lines = (workdir / "data" / name).read_text().splitlines()
            assert len(lines) == SYNTH["n_samples"] + 1  # header row

    def test_same_config_twice_gives_identical_hashes(self, workdir, tmp_path):
        assert main(["gen-data", "--config", str(workdir / "synth.json"), "--out", str(tmp_path / "d2")]) == 0
        for name in ("modality_1.csv", "modality_2.csv", "labels.csv"):
            assert (tmp_path / "d2" / name).read_bytes() == (workdir / "data" / name).read_bytes()
        # manifests agree on every content hash; only the --out path differs
        first = json.loads((workdir / "data" / "manifest.json").read_text())
        second = json.loads((tmp_path / "d2" / "manifest.json").read_text())
        assert {k: v["sha256"] for k, v in first["outputs"].items()} == {
            k: v["sha256"] for k, v in second["outputs"].items()
        }

    def test_default_config_matches_golden_hashes(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path / "d")]) == 0
        for name, expected in GOLDEN_DEFAULT_DATASET.items():
            assert sha256_file(tmp_path / "d" / name) == expected, name

    def test_unknown_key_rejected_with_path(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bad.json", {"n_sample": 10})
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
        assert "n_sample" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, workdir, tmp_path):
        assert (
            main(["gen-data", "--config", str(workdir / "synth.json"), "--seed", "4", "--out", str(tmp_path / "d")])
            == 0
        )
        assert (tmp_path / "d" / "labels.csv").read_bytes() != (workdir / "data" / "labels.csv").read_bytes()

    def test_malformed_json_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text("{nope")
        assert main(["gen-data", "--config", str(tmp_path / "bad.json"), "--out", str(tmp_path / "d")]) == 2


class TestTrain:
    def test_outputs_exist_with_manifest_hashes(self, workdir):
        manifest = json.loads((workdir / "run" / "manifest.json").read_text())
        for name, entry in manifest["outputs"].items():
            assert sha256_file(workdir / "run" / name) == entry["sha256"]

    def test_loss_trace_has_one_row_per_epoch(self, workdir):
        header, trace = read_matrix_csv(workdir / "run" / "loss_trace.csv")
        assert header == ["epoch", "loss", "term_mean"]
        assert trace.shape == (TRAIN["epochs"], 3)
        assert np.array_equal(trace[:, 0], np.arange(TRAIN["epochs"]))

    def test_unknown_model_key_rejected_with_path(self, workdir, tmp_path, capsys):
        cfg = write_json(tmp_path / "bad.json", {"model": {"dd": 4}})
        code = main(["train", "--config", cfg, "--dataset", str(workdir / "data"), "--out", str(tmp_path / "r")])
        assert code == 2
        assert "model.dd" in capsys.readouterr().err

    def test_loss_flag_overrides_variant(self, workdir, tmp_path):
        cfg = write_json(tmp_path / "t.json", {**TRAIN, "epochs": 1})
        code = main(
            [
                "train",
                "--config",
                cfg,
                "--loss",
                "ablated",
                "--dataset",
                str(workdir / "data"),
                "--out",
                str(tmp_path / "r"),
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["config"]["train"]["loss_variant"] == "ablated"

    def test_header_only_labels_is_a_data_error(self, workdir, tmp_path, capsys):
        shutil.copytree(workdir / "data", tmp_path / "d")
        (tmp_path / "d" / "labels.csv").write_text("label,is_train\n")
        code = main(["train", "--dataset", str(tmp_path / "d"), "--out", str(tmp_path / "r")])
        assert code == 3
        assert capsys.readouterr().err.count("error:") == 1

    @pytest.mark.parametrize("command", ["train", "encode"])
    def test_non_finite_cell_is_a_data_error(self, workdir, tmp_path, capsys, command):
        shutil.copytree(workdir / "data", tmp_path / "d")
        path = tmp_path / "d" / "modality_1.csv"
        lines = path.read_text().splitlines()
        lines[13] = ",".join(["nan"] + lines[13].split(",")[1:])
        path.write_text("\n".join(lines) + "\n")
        args = ["--dataset", str(tmp_path / "d"), "--out", str(tmp_path / "r")]
        if command == "encode":
            args += ["--checkpoint", str(workdir / "run" / "checkpoint.gmc"), "--pathway", "1"]
        assert main([command, *args]) == 3
        assert capsys.readouterr().err.count("error:") == 1

    def test_missing_dataset_is_a_data_error(self, workdir, tmp_path):
        code = main(["train", "--dataset", str(tmp_path / "nowhere"), "--out", str(tmp_path / "r")])
        assert code == 3


class TestEncode:
    def test_rows_and_columns_match_split_and_s(self, workdir, tmp_path):
        assert run_encode(workdir, "complete", "test", tmp_path / "e") == 0
        header, z = read_matrix_csv(tmp_path / "e" / "embeddings.csv")
        assert header == [f"z{j}" for j in range(16)]
        assert z.shape == (40, 16)  # 200 samples, train_fraction 0.8

    def test_modality_pathway_differs_from_complete(self, workdir, tmp_path):
        assert run_encode(workdir, "complete", "test", tmp_path / "c") == 0
        assert run_encode(workdir, "1", "test", tmp_path / "m") == 0
        _, zc = read_matrix_csv(tmp_path / "c" / "embeddings.csv")
        _, zm = read_matrix_csv(tmp_path / "m" / "embeddings.csv")
        assert zc.shape == zm.shape
        assert not np.array_equal(zc, zm)

    def test_all_split_covers_every_sample(self, workdir, tmp_path):
        assert run_encode(workdir, "2", "all", tmp_path / "a") == 0
        _, z = read_matrix_csv(tmp_path / "a" / "embeddings.csv")
        assert z.shape[0] == SYNTH["n_samples"]

    def test_embeddings_round_trip_the_model_exactly(self, workdir, tmp_path):
        assert run_encode(workdir, "complete", "test", tmp_path / "e") == 0
        _, z = read_matrix_csv(tmp_path / "e" / "embeddings.csv")
        from gmc.persist import load_dataset

        model = load_checkpoint(workdir / "run" / "checkpoint.gmc")
        ds = load_dataset(workdir / "data")
        assert np.array_equal(z, model.encode_complete(ds.complete_view("test")).data)

    def test_bad_pathway_is_a_config_error(self, workdir, tmp_path, capsys):
        assert run_encode(workdir, "9", "test", tmp_path / "x") == 2
        assert "--pathway" in capsys.readouterr().err

    def test_bad_magic_is_a_format_error(self, workdir, tmp_path):
        blob = (workdir / "run" / "checkpoint.gmc").read_bytes()
        (tmp_path / "evil.gmc").write_bytes(b"NOPE" + blob[4:])
        code = main(
            [
                "encode",
                "--checkpoint",
                str(tmp_path / "evil.gmc"),
                "--dataset",
                str(workdir / "data"),
                "--pathway",
                "1",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda blob: blob[:5],  # the file ends one byte into the header length
            lambda blob: _edit_header(blob, lambda h: [h]),
            lambda blob: _edit_header(blob, lambda h: {"version": 1}),
            lambda blob: _edit_header(
                blob, lambda h: {**h, "parameters": [{"name": ["head/w0"], "shape": [16, 16]}]}
            ),
            lambda blob: blob[:-8] + np.array([np.nan], dtype="<f8").tobytes(),
        ],
        ids=["short-length", "array-header", "keyless-header", "list-parameter-name", "nan-weight"],
    )
    def test_broken_checkpoint_is_a_format_error(self, workdir, tmp_path, capsys, corrupt):
        blob = corrupt((workdir / "run" / "checkpoint.gmc").read_bytes())
        (tmp_path / "broken.gmc").write_bytes(blob)
        code = main(
            [
                "encode",
                "--checkpoint",
                str(tmp_path / "broken.gmc"),
                "--dataset",
                str(workdir / "data"),
                "--pathway",
                "1",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 3
        assert capsys.readouterr().err.count("error:") == 1

    def test_dimension_mismatch_is_a_contract_error(self, workdir, tmp_path):
        other = write_json(tmp_path / "s.json", {**SYNTH, "modality_dims": [8, 7]})
        assert main(["gen-data", "--config", other, "--out", str(tmp_path / "d")]) == 0
        code = main(
            [
                "encode",
                "--checkpoint",
                str(workdir / "run" / "checkpoint.gmc"),
                "--dataset",
                str(tmp_path / "d"),
                "--pathway",
                "1",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 3


@pytest.fixture(scope="module")
def embeddings(workdir):
    out_c, out_m = workdir / "dca_c", workdir / "dca_m"
    assert run_encode(workdir, "complete", "test", out_c) == 0
    assert run_encode(workdir, "1", "test", out_m) == 0
    return out_c / "embeddings.csv", out_m / "embeddings.csv"


class TestEvalDca:
    def test_reference_equal_to_evaluation_scores_one(self, embeddings, tmp_path):
        ref, _ = embeddings
        code = main(["eval-dca", "--reference", str(ref), "--evaluation", str(ref), "--k", "1", "--out", str(tmp_path / "o")])
        assert code == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["harmonic"] == 1.0
        assert report["precision"] == 1.0 and report["recall"] == 1.0
        assert report["outliers"] == []

    def test_report_fields_and_outlier_complement(self, embeddings, tmp_path):
        ref, ev = embeddings
        code = main(["eval-dca", "--reference", str(ref), "--evaluation", str(ev), "--out", str(tmp_path / "o")])
        assert code == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["k"] == 5
        assert report["n_reference"] == report["n_evaluation"] == 40
        assert 0.0 <= report["harmonic"] <= 1.0
        total = set(report["fundamental_vertices"]) | set(report["outliers"])
        assert total == set(range(80))
        for comp in report["components"]:
            assert comp["fundamental"] == (comp["consistency"] > 0 and comp["quality"] > 0)

    def test_pca_projection_covers_pooled_cloud(self, embeddings, tmp_path):
        ref, ev = embeddings
        assert main(["eval-dca", "--reference", str(ref), "--evaluation", str(ev), "--out", str(tmp_path / "o")]) == 0
        text = (tmp_path / "o" / "pca2d.csv").read_text().splitlines()
        assert text[0] == "origin,pc1,pc2"
        origins = [line.split(",")[0] for line in text[1:]]
        assert origins == ["R"] * 40 + ["E"] * 40

    def test_width_mismatch_rejected(self, embeddings, tmp_path):
        ref, _ = embeddings
        (tmp_path / "narrow.csv").write_text("z0,z1\n0.0,0.0\n1.0,1.0\n")
        code = main(["eval-dca", "--reference", str(ref), "--evaluation", str(tmp_path / "narrow.csv"), "--out", str(tmp_path / "o")])
        assert code == 3


class TestPca2d:
    def test_projection_recovers_planted_plane(self):
        gen = np.random.default_rng(5)
        plane = np.zeros((300, 6))
        plane[:, 0] = gen.standard_normal(300) * 10.0
        plane[:, 1] = gen.standard_normal(300) * 4.0
        proj = pca_2d(plane + 0.01 * gen.standard_normal((300, 6)))
        # pc1 must carry the dominant axis
        assert abs(np.corrcoef(proj[:, 0], plane[:, 0])[0, 1]) > 0.99
        assert abs(np.corrcoef(proj[:, 1], plane[:, 1])[0, 1]) > 0.99

    def test_projection_is_deterministic(self):
        gen = np.random.default_rng(6)
        x = gen.standard_normal((50, 4))
        assert np.array_equal(pca_2d(x), pca_2d(x))


class TestEvalProbe:
    def test_table_lists_every_pathway(self, workdir, tmp_path):
        cfg = write_json(tmp_path / "p.json", {"epochs": 5, "seed": 3})
        code = main(
            [
                "eval-probe",
                "--checkpoint",
                str(workdir / "run" / "checkpoint.gmc"),
                "--dataset",
                str(workdir / "data"),
                "--config",
                cfg,
                "--out",
                str(tmp_path / "p"),
            ]
        )
        assert code == 0
        lines = (tmp_path / "p" / "robustness.csv").read_text().splitlines()
        assert lines[0] == "pathway,accuracy"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["complete", "modality_1", "modality_2"]
        for line in lines[1:]:
            assert 0.0 <= float(line.split(",")[1]) <= 1.0

    def test_unknown_probe_key_rejected(self, workdir, tmp_path, capsys):
        cfg = write_json(tmp_path / "p.json", {"hidden_layers": [4]})
        code = main(
            [
                "eval-probe",
                "--checkpoint",
                str(workdir / "run" / "checkpoint.gmc"),
                "--dataset",
                str(workdir / "data"),
                "--config",
                cfg,
                "--out",
                str(tmp_path / "p"),
            ]
        )
        assert code == 2
        assert "hidden_layers" in capsys.readouterr().err


class TestSweep:
    def test_tau_grid_makes_run_dirs_and_aggregate(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("GMC_THREADS", "2")
        cfg = write_json(
            tmp_path / "sweep.json",
            {"epochs": 1, "batch_size": 32, "tau": [0.1, 0.3], "seed": 3, "model": {"d": 8, "s": 8, "hidden": 8}},
        )
        code = main(["sweep", "--config", cfg, "--dataset", str(workdir / "data"), "--out", str(tmp_path / "sw")])
        assert code == 0
        runs = sorted(p.name for p in (tmp_path / "sw").iterdir() if p.is_dir())
        assert runs == ["run_000_tau0.1", "run_001_tau0.3"]
        for run in runs:
            for name in ("checkpoint.gmc", "loss_trace.csv", "robustness.csv", "dca.csv", "manifest.json"):
                assert (tmp_path / "sw" / run / name).exists()
        lines = (tmp_path / "sw" / "aggregate.csv").read_text().splitlines()
        assert lines[0] == "metric,pathway,tau0.1,tau0.3"
        metrics = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert metrics == [
            ("probe_accuracy", "complete"),
            ("probe_accuracy", "modality_1"),
            ("probe_accuracy", "modality_2"),
            ("dca_harmonic", "modality_1"),
            ("dca_harmonic", "modality_2"),
        ]

    def test_sequential_and_parallel_agree(self, workdir, tmp_path, monkeypatch):
        cfg = write_json(
            tmp_path / "sweep.json",
            {"epochs": 1, "batch_size": 32, "loss_variant": ["full", "ablated"], "seed": 3, "model": {"d": 8, "s": 8, "hidden": 8}},
        )
        monkeypatch.setenv("GMC_THREADS", "1")
        assert main(["sweep", "--config", cfg, "--dataset", str(workdir / "data"), "--out", str(tmp_path / "seq")]) == 0
        monkeypatch.setenv("GMC_THREADS", "2")
        assert main(["sweep", "--config", cfg, "--dataset", str(workdir / "data"), "--out", str(tmp_path / "par")]) == 0
        assert (tmp_path / "seq" / "aggregate.csv").read_bytes() == (tmp_path / "par" / "aggregate.csv").read_bytes()

    def test_invalid_thread_cap_is_a_config_error(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("GMC_THREADS", "zero")
        cfg = write_json(tmp_path / "s.json", {"epochs": 1, "tau": [0.1]})
        code = main(["sweep", "--config", cfg, "--dataset", str(workdir / "data"), "--out", str(tmp_path / "sw")])
        assert code == 2


class TestReproducibility:
    def test_train_encode_eval_chain_is_byte_identical(self, tmp_path, monkeypatch):
        """Same commands, same relative paths, two working directories."""

        def chain(world):
            world.mkdir()
            write_json(world / "synth.json", SYNTH)
            write_json(world / "train.json", {**TRAIN, "epochs": 2})
            monkeypatch.chdir(world)
            assert main(["gen-data", "--config", "synth.json", "--out", "data"]) == 0
            assert main(["train", "--config", "train.json", "--dataset", "data", "--out", "run"]) == 0
            assert (
                main(
                    [
                        "encode",
                        "--checkpoint",
                        "run/checkpoint.gmc",
                        "--dataset",
                        "data",
                        "--pathway",
                        "1",
                        "--split",
                        "test",
                        "--out",
                        "emb",
                    ]
                )
                == 0
            )
            assert main(["eval-dca", "--reference", "emb/embeddings.csv", "--evaluation", "emb/embeddings.csv", "--out", "dca"]) == 0

        chain(tmp_path / "a")
        chain(tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


class TestGoldenTrainingOutputs:
    def test_trained_artifacts_match_golden_hashes(self, workdir, tmp_path, monkeypatch):
        """Pins the bytes training, the probe and the sweep write.

        `workdir` already holds gen-data on SYNTH and `train` on TRAIN (Adam,
        full loss) in run/. Manifests are left out: they hold paths as given.
        """
        data, ckpt = str(workdir / "data"), str(workdir / "run" / "checkpoint.gmc")
        sgd = write_json(
            tmp_path / "sgd.json",
            {**TRAIN, "optimizer": "sgd", "learning_rate": 0.01, "loss_variant": "ablated"},
        )
        assert main(["train", "--config", sgd, "--dataset", data, "--out", str(tmp_path / "sgd")]) == 0
        probes = {
            "probe_adam": {"epochs": 3, "hidden": [16]},
            "probe_sgd": {"epochs": 3, "hidden": [16], "optimizer": "sgd", "learning_rate": 0.05},
        }
        for name, probe in probes.items():
            cfg = write_json(tmp_path / f"{name}.json", probe)
            code = main(
                ["eval-probe", "--checkpoint", ckpt, "--dataset", data, "--config", cfg,
                 "--out", str(tmp_path / name)]
            )
            assert code == 0
        sweep = write_json(
            tmp_path / "sweep.json",
            {**TRAIN, "epochs": 1, "tau": [0.1, 0.2], "loss_variant": ["full", "ablated"]},
        )
        monkeypatch.setenv("GMC_THREADS", "1")
        assert main(["sweep", "--config", sweep, "--dataset", data, "--out", str(tmp_path / "sweep")]) == 0

        out_dirs = {"run": workdir / "run", "sgd": tmp_path / "sgd", "sweep": tmp_path / "sweep"}
        out_dirs.update({name: tmp_path / name for name in probes})
        out_dirs.update({f"sweep/{p.name}": p for p in (tmp_path / "sweep").iterdir() if p.is_dir()})
        got = {
            f"{label}/{f.name}": sha256_file(f)
            for label, d in out_dirs.items()
            for f in d.iterdir()
            if f.is_file() and f.name != "manifest.json"
        }
        assert got == GOLDEN_TRAINING_OUTPUTS


class TestEntryPoints:
    def test_usage_error_exits_two(self):
        assert main([]) == 2
        assert main(["no-such-command"]) == 2

    def test_version_flag_exits_zero(self, capsys):
        assert main(["--version"]) == 0

    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gmc.cli", "--version"],
            capture_output=True,
            text=True,
            env={**os.environ},
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("gmc ")
