import errno
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gmc
import gmc.persist
from gmc.cli import main, pca_2d
from gmc.downstream import ProbeConfig
from gmc.model import ModelConfig, TrainConfig
from gmc.persist import load_checkpoint, read_matrix_csv
from gmc.synthdata import SynthConfig

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

# Hashes of what eval-dca writes in TestGoldenEvalDca, frozen before the k-NN
# graph lost its per-point loop. A change here means the graph, the scoring
# or an output format drifted.
GOLDEN_EVAL_DCA = {
    "k5/report.json": "f64ad9388ab20a81ec770d2ee3e15f8c9da626788bb3175e215fcc1cb9f3fc78",
    "k5/outliers.csv": "f80055b4738b24cc03b270e86082930ed910ac42034c4a206bf354d2975eef76",
    "k5/pca2d.csv": "e084a76fef397630c0714ace79b8c3b7234e8c235a4af8294f8174e1da57567e",
    "k1/report.json": "11a2782aaf4cbdd7e2d0a3dadb68af129e61de069829485175bc72747b84a938",
    "k1/outliers.csv": "130ba72f08cca1083818561366cab05cbebd3c4169505c0a56a108f31f8e3a19",
    "k1/pca2d.csv": "e084a76fef397630c0714ace79b8c3b7234e8c235a4af8294f8174e1da57567e",
}

# Hashes of every manifest.json the relative-path chain in TestReproducibility
# writes, frozen while outputs were still hashed by reading them back. A
# change here means a manifest's layout or a hash it records drifted.
GOLDEN_MANIFESTS = {
    "data/manifest.json": "e05557a7202a3beccdbb07cc197e14c39fd3d3cfb1c2a908f54f9746a23c8752",
    "dca/manifest.json": "946305070e8372af6022d6c2505db8e2f5f841bc3a47f816ad58c6d16e74b3cb",
    "emb/manifest.json": "96de79477793887f994facdc41159fdc54e570c1001b8ed32921912e6dfd4643",
    "probe/manifest.json": "bde107e42dfb18e7c8becca981cfba756bfb13e13d5470ed862811a98347cd23",
    "run/manifest.json": "6b2af5ee1698a718ffbde9ef21fc8d966d9618a06d88a2203671a387ecebc511",
    "sweep/manifest.json": "8be322b3a98c611d39bf9643d5f5b3d3cc2c3f3ee3fc174cd1389ea2abdb8dad",
    "sweep/run_000_tau0.1/manifest.json": "6c7d5962701e1c7ba84f9c70d778f771ad2c188a2e7b37952d706191da67a0e8",
    "sweep/run_001_tau0.2/manifest.json": "884b048989d96e34609bb200993ece5d9383a539c82ac17ecfba2e80392b01bf",
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


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
        assert np.array_equal(z, model.encode_complete(ds.complete_view("test")))

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
            lambda blob: _edit_header(
                blob, lambda h: {**h, "parameters": h["parameters"] + [{"name": "head/b1", "shape": [16]}]}
            )
            + np.full(16, 7.0, dtype="<f8").tobytes(),
            lambda blob: _edit_header(
                blob, lambda h: {**h, "parameters": h["parameters"][1::-1] + h["parameters"][2:]}
            ),
        ],
        ids=[
            "short-length",
            "array-header",
            "keyless-header",
            "list-parameter-name",
            "nan-weight",
            "duplicate-parameter",
            "reordered-parameters",
        ],
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

    def test_k_below_one_is_a_config_error(self, embeddings, tmp_path, capsys):
        ref, ev = embeddings
        code = main(["eval-dca", "--reference", str(ref), "--evaluation", str(ev), "--k", "0", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "--k" in err

    def test_overflowing_distances_are_a_data_error(self, tmp_path, capsys):
        rows = "\n".join(",".join(f"{(i + 1) * (j - 1.5):.1f}e200" for j in range(4)) for i in range(10))
        for name in ("r.csv", "e.csv"):
            (tmp_path / name).write_text("z0,z1,z2,z3\n" + rows + "\n")
        code = main(["eval-dca", "--reference", str(tmp_path / "r.csv"), "--evaluation", str(tmp_path / "e.csv"), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "overflow" in err

    @pytest.mark.parametrize("side", ["reference", "evaluation"])
    def test_header_only_embeddings_are_a_data_error(self, embeddings, tmp_path, capsys, side):
        ref, ev = embeddings
        (tmp_path / "empty.csv").write_text(ref.read_text().splitlines()[0] + "\n")
        paths = {"reference": str(ref), "evaluation": str(ev), side: str(tmp_path / "empty.csv")}
        code = main(["eval-dca", "--reference", paths["reference"], "--evaluation", paths["evaluation"], "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "no rows" in err and "empty.csv" in err

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


class TestLabels:
    """labels.csv holds a non-negative integer label and a 0/1 train flag
    per sample, and leaves at least one train and one test sample."""

    @pytest.mark.parametrize(
        "column, value, rows, message",
        [
            (1, "1", "all", "empty train or test set"),
            (1, "0", "all", "empty train or test set"),
            (1, "2", "first", "is_train 2 in data row 1 is not 0 or 1"),
            (0, "1.5", "first", "label 1.5 in data row 1 is not a non-negative integer"),
            (0, "-1", "first", "label -1 in data row 1 is not a non-negative integer"),
            (0, "1e300", "first", "label 1e+300 in data row 1 is not a non-negative integer below 2**63"),
            (0, "9223372036854775808", "first", "label 9.22337e+18 in data row 1 is not a non-negative integer"),
            (0, "0", "all", "the train split's labels are all 0; a probe needs at least 2 classes"),
        ],
        ids=["all-train", "all-test", "flag-2", "label-1.5", "label-negative", "label-1e300", "label-2**63", "one-class"],
    )
    def test_bad_labels_are_a_data_error(self, workdir, tmp_path, capsys, column, value, rows, message):
        shutil.copytree(workdir / "data", tmp_path / "d")
        path = tmp_path / "d" / "labels.csv"
        header, *lines = path.read_text().splitlines()
        cells = [line.split(",") for line in lines]
        for row in cells if rows == "all" else cells[:1]:
            row[column] = value
        path.write_text("\n".join([header] + [",".join(row) for row in cells]) + "\n")
        cfg = write_json(tmp_path / "p.json", {"epochs": 1})
        code = main(
            [
                "eval-probe",
                "--checkpoint",
                str(workdir / "run" / "checkpoint.gmc"),
                "--dataset",
                str(tmp_path / "d"),
                "--config",
                cfg,
                "--out",
                str(tmp_path / "p"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err

    def test_huge_label_ends_in_one_error_line(self, workdir, tmp_path):
        """A label of 1e9 passes the parser, and the probe's last layer would
        need 954 GiB. The command runs in a child whose address space is
        capped at 2 GiB, so the allocation fails without touching memory."""
        shutil.copytree(workdir / "data", tmp_path / "d")
        path = tmp_path / "d" / "labels.csv"
        header, first, *rest = path.read_text().splitlines()
        first = ",".join(["1000000000", *first.split(",")[1:]])
        path.write_text("\n".join([header, first, *rest]) + "\n")
        cfg = write_json(tmp_path / "p.json", {"epochs": 1})
        limit = 2 << 30

        def cap_address_space():  # runs in the child only
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        source_root = str(Path(gmc.__file__).resolve().parent.parent)
        python_path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "gmc.cli", "eval-probe", "--checkpoint", str(workdir / "run" / "checkpoint.gmc"),
             "--dataset", str(tmp_path / "d"), "--config", cfg, "--out", str(tmp_path / "p")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": python_path, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=cap_address_space,
        )
        assert proc.returncode == 3
        assert proc.stderr.count("error:") == 1 and "out of memory" in proc.stderr
        assert "Traceback" not in proc.stderr


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

    def test_numeric_error_in_a_worker_exits_four(self, workdir, tmp_path, capsys, monkeypatch):
        # exp(cos / tau) overflows at tau = 1e-3 while a pool worker trains,
        # so the error has to cross the process pool to reach main
        monkeypatch.setenv("GMC_THREADS", "2")
        cfg = write_json(tmp_path / "s.json", {**TRAIN, "tau": [0.1, 1e-3]})
        code = main(["sweep", "--config", cfg, "--dataset", str(workdir / "data"), "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "non-finite loss" in err

    def test_bad_activation_exits_two_before_the_out_directory(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "s.json", {**TRAIN, "tau": [0.1, 0.2], "model": {"activation": "tanh"}})
        code = main(["sweep", "--config", cfg, "--dataset", str(tmp_path / "nowhere"), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "config key 'model.activation'" in err
        assert not (tmp_path / "o").exists()

    def test_invalid_thread_cap_is_a_config_error(self, workdir, tmp_path, monkeypatch):
        monkeypatch.setenv("GMC_THREADS", "zero")
        cfg = write_json(tmp_path / "s.json", {"epochs": 1, "tau": [0.1]})
        code = main(["sweep", "--config", cfg, "--dataset", str(workdir / "data"), "--out", str(tmp_path / "sw")])
        assert code == 2


class TestTwins:
    def test_manifests_list_the_twins(self, workdir, tmp_path):
        data = json.loads((workdir / "data" / "manifest.json").read_text())["outputs"]
        assert sorted(data) == ["labels.csv", "modality_1.csv", "modality_1.csv.f64", "modality_2.csv", "modality_2.csv.f64"]
        assert run_encode(workdir, "1", "test", tmp_path / "e") == 0
        emb = json.loads((tmp_path / "e" / "manifest.json").read_text())["outputs"]
        assert sorted(emb) == ["embeddings.csv", "embeddings.csv.f64"]
        for root, outputs in ((workdir / "data", data), (tmp_path / "e", emb)):
            for name, entry in outputs.items():
                assert entry["path"] == str(root / name)
                assert sha256_file(root / name) == entry["sha256"]

    def test_artifacts_do_not_depend_on_the_twins(self, workdir, tmp_path, monkeypatch):
        """train, encode, eval-dca, eval-probe and sweep write the same bytes
        whether every matrix CSV they read has its twin or none has."""
        monkeypatch.setenv("GMC_THREADS", "1")
        sweep = {**TRAIN, "epochs": 1, "tau": [0.2]}

        def chain(world, twins):
            shutil.copytree(workdir / "data", world / "data")
            write_json(world / "train.json", TRAIN)
            write_json(world / "probe.json", {"epochs": 3, "hidden": [8]})
            write_json(world / "sweep.json", sweep)

            def strip():
                if not twins:
                    for twin in list(world.rglob("*.f64")):
                        twin.unlink()

            monkeypatch.chdir(world)
            ckpt = ["--checkpoint", "run/checkpoint.gmc", "--dataset", "data"]
            for argv in (
                ["train", "--config", "train.json", "--dataset", "data", "--out", "run"],
                ["encode", *ckpt, "--pathway", "complete", "--split", "test", "--out", "ref"],
                ["encode", *ckpt, "--pathway", "2", "--split", "test", "--out", "ev"],
                ["eval-dca", "--reference", "ref/embeddings.csv", "--evaluation", "ev/embeddings.csv", "--out", "dca"],
                ["eval-probe", *ckpt, "--config", "probe.json", "--out", "probe"],
                ["sweep", "--config", "sweep.json", "--dataset", "data", "--out", "sweep"],
            ):
                strip()
                assert main(argv) == 0, argv
            return {
                str(path.relative_to(world)): path.read_bytes()
                for path in sorted(world.rglob("*"))
                if path.is_file() and path.name != "manifest.json" and path.suffix != ".f64"
            }

        assert (workdir / "data" / "modality_1.csv.f64").exists()
        with_twins = chain(tmp_path / "with", twins=True)
        without = chain(tmp_path / "without", twins=False)
        assert sorted(with_twins) == sorted(without)
        assert "dca/report.json" in with_twins and "sweep/aggregate.csv" in with_twins
        for name, blob in with_twins.items():
            assert blob == without[name], name


class _CountingSha256:
    """Stands in for `hashlib.sha256` and keeps the bytes each hash saw."""

    def __init__(self):
        self.inputs = []

    def __call__(self, data=b""):
        fed = [bytes(data)]
        self.inputs.append(fed)
        inner = hashlib.sha256(data)

        class Hash:
            def update(self, more):
                fed.append(bytes(more))
                inner.update(more)

            def digest(self):
                return inner.digest()

            def hexdigest(self):
                return inner.hexdigest()

        return Hash()

    def passes_over(self, path):
        blob = Path(path).read_bytes()
        return sum(b"".join(fed) == blob for fed in self.inputs)


class TestInputHashes:
    @pytest.mark.parametrize("command", ["gen-data", "train", "encode", "eval-dca", "eval-probe", "sweep"])
    def test_each_input_is_hashed_once(self, workdir, embeddings, tmp_path, monkeypatch, command):
        """Each file a command reads is hashed once, in the read that parses
        it, and each file its manifest lists as an output is hashed once, as
        it is written. A sweep parses the data set once, for all its grid
        points."""
        data, ckpt = workdir / "data", workdir / "run" / "checkpoint.gmc"
        dataset_inputs = [data / "modality_1.csv", data / "modality_2.csv", data / "labels.csv"]
        synth = write_json(tmp_path / "s.json", SYNTH)
        train = write_json(tmp_path / "t.json", {**TRAIN, "epochs": 1})
        probe = write_json(tmp_path / "p.json", {"epochs": 1, "hidden": [8]})
        sweep = write_json(tmp_path / "w.json", {**TRAIN, "epochs": 1, "tau": [0.1, 0.2]})
        args, inputs = {
            "gen-data": (["--config", synth], []),
            "train": (["--config", train, "--dataset", str(data)], dataset_inputs),
            "encode": (["--checkpoint", str(ckpt), "--dataset", str(data), "--pathway", "1"], [ckpt] + dataset_inputs),
            "eval-dca": (["--reference", str(embeddings[0]), "--evaluation", str(embeddings[1])], list(embeddings)),
            "eval-probe": (["--checkpoint", str(ckpt), "--dataset", str(data), "--config", probe], [ckpt] + dataset_inputs),
            "sweep": (["--config", sweep, "--dataset", str(data)], dataset_inputs),
        }[command]
        monkeypatch.setenv("GMC_THREADS", "1")
        counter = _CountingSha256()
        monkeypatch.setattr(gmc.persist, "hashlib", SimpleNamespace(sha256=counter))
        assert main([command, *args, "--out", str(tmp_path / "o")]) == 0
        monkeypatch.undo()
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        recorded = {e["path"]: e["sha256"] for e in manifest["inputs"].get("dataset", {}).values()}
        recorded.update({e["path"]: e["sha256"] for k, e in manifest["inputs"].items() if k != "dataset"})
        for path in inputs:
            assert counter.passes_over(path) == 1, path
            assert recorded[str(path)] == sha256_file(path)
        assert manifest["outputs"]
        for name, entry in manifest["outputs"].items():
            assert entry["path"] == str(tmp_path / "o" / name)
            assert counter.passes_over(entry["path"]) == 1, name
            assert entry["sha256"] == sha256_file(entry["path"])


def _failing_open(target):
    """An `open` that, for `target` or its temporary sibling, writes half of
    the first write and then fails as a full disk does."""
    real_open = open

    def fake(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        name = Path(file).name
        if "w" not in mode or not (name == target or name.startswith(f".{target}.")):
            return fh

        class HalfWritten:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                fh.close()

            def write(self, data):
                fh.write(data[: len(data) // 2])
                fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device", str(file))

        return HalfWritten()

    return fake


class TestAtomicWrites:
    @pytest.mark.parametrize(
        "command, target",
        [
            ("train", "checkpoint.gmc"),
            ("train", "loss_trace.csv"),
            ("encode", "embeddings.csv"),
            ("encode", "embeddings.csv.f64"),
            ("eval-dca", "report.json"),
            ("eval-dca", "pca2d.csv"),
            ("eval-dca", "manifest.json"),
        ],
    )
    @pytest.mark.parametrize("before", ["absent", "present"])
    def test_failed_write_leaves_old_file_or_none(self, workdir, embeddings, tmp_path, capsys, monkeypatch, command, target, before):
        data = str(workdir / "data")
        args = {
            "train": ["--config", write_json(tmp_path / "t.json", {**TRAIN, "epochs": 1}), "--dataset", data],
            "encode": ["--checkpoint", str(workdir / "run" / "checkpoint.gmc"), "--dataset", data, "--pathway", "1"],
            "eval-dca": ["--reference", str(embeddings[0]), "--evaluation", str(embeddings[1])],
        }[command] + ["--out", str(tmp_path / "o")]
        if before == "present":
            assert main([command, *args]) == 0
            old = (tmp_path / "o" / target).read_bytes()
        capsys.readouterr()
        monkeypatch.setattr(gmc.persist, "open", _failing_open(target), raising=False)
        assert main([command, *args]) == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "No space left" in err and "Traceback" not in err
        if before == "present":
            assert (tmp_path / "o" / target).read_bytes() == old
        else:
            assert not (tmp_path / "o" / target).exists()
        assert not [p.name for p in (tmp_path / "o").iterdir() if p.name.endswith(".tmp")]


class TestReproducibility:
    def test_train_encode_eval_chain_is_byte_identical(self, tmp_path, monkeypatch):
        """Same commands, same relative paths, two working directories; every
        manifest, which holds the paths as given, matches GOLDEN_MANIFESTS."""

        def chain(world):
            world.mkdir()
            write_json(world / "synth.json", SYNTH)
            write_json(world / "train.json", {**TRAIN, "epochs": 2})
            write_json(world / "probe.json", {"epochs": 2, "hidden": [8]})
            write_json(world / "sweep.json", {**TRAIN, "epochs": 1, "tau": [0.1, 0.2]})
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
            assert main(["eval-probe", "--checkpoint", "run/checkpoint.gmc", "--dataset", "data", "--config", "probe.json", "--out", "probe"]) == 0
            monkeypatch.setenv("GMC_THREADS", "1")
            assert main(["sweep", "--config", "sweep.json", "--dataset", "data", "--out", "sweep"]) == 0

        chain(tmp_path / "a")
        chain(tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel
        got = {str(rel): sha256_file(tmp_path / "a" / rel) for rel in files_a if rel.name == "manifest.json"}
        assert got == GOLDEN_MANIFESTS


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


class TestGoldenEvalDca:
    def test_eval_dca_outputs_match_golden_hashes(self, workdir, tmp_path):
        """Pins the bytes eval-dca writes: complete vs modality-1 embeddings of
        every sample, 400 points, so the k-NN graph runs seven 64-row blocks
        and the last one is partial."""
        out_c, out_m = tmp_path / "all_c", tmp_path / "all_m"
        assert run_encode(workdir, "complete", "all", out_c) == 0
        assert run_encode(workdir, "1", "all", out_m) == 0
        got = {}
        for k in ("5", "1"):
            out = tmp_path / f"k{k}"
            code = main(
                ["eval-dca", "--reference", str(out_c / "embeddings.csv"),
                 "--evaluation", str(out_m / "embeddings.csv"), "--k", k, "--out", str(out)]
            )
            assert code == 0
            got.update({f"k{k}/{name}": sha256_file(out / name) for name in ("report.json", "outliers.csv", "pca2d.csv")})
        assert got == GOLDEN_EVAL_DCA


class TestFloatConfigKeys:
    @pytest.mark.parametrize(
        "command, config",
        [
            ("gen-data", {"noise_sigma": float("nan")}),
            ("train", {"adam_beta1": "x"}),
            ("eval-probe", {"adam_beta1": "x"}),
            ("sweep", {**TRAIN, "tau": [0.1, float("inf")]}),
        ],
    )
    def test_bad_float_key_is_a_config_error(self, workdir, tmp_path, capsys, monkeypatch, command, config):
        monkeypatch.setenv("GMC_THREADS", "2")
        args = [command, "--config", write_json(tmp_path / "c.json", config), "--out", str(tmp_path / "o")]
        if command != "gen-data":
            args += ["--dataset", str(workdir / "data")]
        if command == "eval-probe":
            args += ["--checkpoint", str(workdir / "run" / "checkpoint.gmc")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err


class TestWrongConfigValues:
    """"x" is a wrong value for every config key, and so is a number for a
    list. The error names the key's path before any input is read: every
    input path here is missing."""

    @pytest.mark.parametrize(
        "command, path, value",
        [("gen-data", f.name, "x") for f in fields(SynthConfig)]
        + [("train", f.name, "x") for f in fields(TrainConfig)]
        + [("train", f"model.{f.name}", "x") for f in fields(ModelConfig)]
        + [("eval-probe", f.name, "x") for f in fields(ProbeConfig)]
        + [("gen-data", "modality_dims", 5), ("eval-probe", "hidden", 5)],
    )
    def test_wrong_value_is_a_config_error_naming_its_path(self, tmp_path, capsys, command, path, value):
        key, _, model_key = path.partition(".")
        config = {"model": {model_key: value}} if model_key else {key: value}
        args = [command, "--config", write_json(tmp_path / "c.json", config), "--out", str(tmp_path / "o")]
        if command != "gen-data":
            args += ["--dataset", str(tmp_path / "nowhere")]
        if command == "eval-probe":
            args += ["--checkpoint", str(tmp_path / "nowhere.gmc")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and f"config key '{path}':" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()


class TestRepeatedConfigKeys:
    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("gen-data", '{"n_samples": 100, "n_samples": 60}', "n_samples"),
            ("train", '{"epochs": 1, "model": {"d": 8}, "model": {"s": 8}}', "model"),
            ("train", '{"epochs": 1, "model": {"d": 8, "hidden": 8, "d": 4}}', "d"),
        ],
        ids=["top-level", "two-model-sections", "nested"],
    )
    def test_repeated_key_is_a_config_error_naming_it(self, workdir, tmp_path, capsys, command, text, key):
        (tmp_path / "dup.json").write_text(text)
        args = [command, "--config", str(tmp_path / "dup.json"), "--out", str(tmp_path / "o")]
        if command == "train":
            args += ["--dataset", str(workdir / "data")]
        assert main(args) == 2
        assert f"'{key}': repeated in {tmp_path / 'dup.json'}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestEntryPoints:
    def test_usage_error_exits_two(self):
        assert main([]) == 2
        assert main(["no-such-command"]) == 2

    def test_version_flag_exits_zero(self, capsys):
        assert main(["--version"]) == 0

    def test_console_script_runs(self):
        # pytest's `pythonpath` setting reaches only this process, so the
        # child gets gmc's source root on its own PYTHONPATH
        source_root = str(Path(gmc.__file__).resolve().parent.parent)
        python_path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "gmc.cli", "--version"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": python_path},
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("gmc ")
