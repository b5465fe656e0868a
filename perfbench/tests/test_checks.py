"""The benchmark's output checks accept real gmc artifacts and reject
tampered ones. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402

SYNTH = {"n_samples": 240}
TRAIN = {"epochs": 3, "batch_size": 32}
GRID = {"epochs": 2, "batch_size": 32, "tau": [0.1, 0.5]}


def gmc(cwd, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), GMC_THREADS="1", OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, "-m", "gmc.cli", *args], cwd=cwd, env=env, check=True, capture_output=True)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A small data set, a trained checkpoint, encodings, a DCA report, a
    probe table and a two-point sweep, all made by the gmc CLI."""
    root = tmp_path_factory.mktemp("artifacts")
    for name, config in (("synth.json", SYNTH), ("train.json", TRAIN), ("grid.json", GRID), ("probe.json", {"epochs": 2})):
        (root / name).write_text(json.dumps(config))
    gmc(root, "gen-data", "--config", "synth.json", "--seed", "5", "--out", "data")
    gmc(root, "train", "--config", "train.json", "--dataset", "data", "--out", "train")
    for pathway in ("complete", "1"):
        gmc(root, "encode", "--checkpoint", "train/checkpoint.gmc", "--dataset", "data",
            "--pathway", pathway, "--split", "test", "--out", f"enc_{pathway}")
    gmc(root, "eval-dca", "--reference", "enc_complete/embeddings.csv",
        "--evaluation", "enc_1/embeddings.csv", "--out", "dca")
    gmc(root, "eval-probe", "--checkpoint", "train/checkpoint.gmc", "--dataset", "data",
        "--config", "probe.json", "--out", "probe")
    gmc(root, "sweep", "--config", "grid.json", "--dataset", "data", "--out", "sweep")
    return root


@pytest.fixture
def copy(work, tmp_path):
    """A private copy of the artifacts that a test may tamper with."""
    target = tmp_path / "copy"
    shutil.copytree(work, target)
    return target


def check_all(root):
    ds = checks.Dataset(root / "data")
    ckpt = checks.check_checkpoint(root / "train/checkpoint.gmc", ds)
    checks.check_loss_trace(root / "train/loss_trace.csv", TRAIN["epochs"], 3, TRAIN["batch_size"])
    checks.check_embeddings(root / "enc_complete", ckpt, ds, "complete", "test")
    checks.check_embeddings(root / "enc_1", ckpt, ds, 1, "test")
    checks.check_dca_report(root / "dca", root / "enc_complete/embeddings.csv", root / "enc_1/embeddings.csv")
    checks.check_robustness(root / "probe/robustness.csv", 3, 48)
    checks.check_sweep(root / "sweep", ds, GRID)


def rewrite_cell(path, row, col, change):
    lines = Path(path).read_text().split("\n")
    cells = lines[row].split(",")
    cells[col] = format(change(float(cells[col])), ".17g")
    lines[row] = ",".join(cells)
    Path(path).write_text("\n".join(lines))


def test_untouched_artifacts_pass(work):
    check_all(work)


def test_changed_embedding_cell_is_rejected(copy):
    rewrite_cell(copy / "enc_1/embeddings.csv", 7, 3, lambda z: z * (1 + 1e-6))
    with pytest.raises(CheckError, match="embeddings differ"):
        check_all(copy)


def test_edited_harmonic_is_rejected(copy):
    report = json.loads((copy / "dca/report.json").read_text())
    report["harmonic"] = report["harmonic"] * (1 - 1e-9)
    (copy / "dca/report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    with pytest.raises(CheckError, match="harmonic"):
        check_all(copy)


def test_edited_sweep_harmonic_is_rejected(copy):
    run = sorted((copy / "sweep").glob("run_001_*"))[0]
    rewrite_cell(run / "dca.csv", 2, 1, lambda h: h + 1e-9)
    with pytest.raises(CheckError, match="harmonic"):
        check_all(copy)


def test_edited_aggregate_cell_is_rejected(copy):
    rewrite_cell(copy / "sweep/aggregate.csv", 5, 3, lambda h: h + 1e-12)
    with pytest.raises(CheckError, match="aggregate"):
        check_all(copy)


def test_dropped_trace_row_is_rejected(copy):
    path = copy / "train/loss_trace.csv"
    path.write_text("\n".join(path.read_text().split("\n")[:-2]) + "\n")
    with pytest.raises(CheckError, match="rows for 3 epochs"):
        check_all(copy)


def test_truncated_checkpoint_is_rejected(copy):
    path = copy / "train/checkpoint.gmc"
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CheckError, match="payload"):
        check_all(copy)


def test_accuracy_must_be_whole_answers_over_n():
    checks.check_accuracy(47 / 48, 48, "ok")
    with pytest.raises(CheckError):
        checks.check_accuracy(47 / 48 + 1e-12, 48, "tampered")


def naive_knn_edges(points, k):
    edges = set()
    for i in range(len(points)):
        d = [(sum((Fraction(float(a)) - Fraction(float(b))) ** 2 for a, b in zip(points[i], points[j])), j)
             for j in range(len(points)) if j != i]
        for _, j in sorted(d)[:k]:
            edges.add((min(i, j), max(i, j)))
    return edges


@pytest.mark.parametrize("seed", range(4))
def test_knn_matches_exact_ranking(seed):
    gen = np.random.default_rng(seed)
    points = gen.integers(-2, 3, size=(30, 3)).astype(float)  # many exact ties
    points[5] = points[9]  # and a duplicate point
    for k in (1, 3, 5):
        assert checks.knn_edges(points, k, block=7) == naive_knn_edges(points, k)


def test_exact_alignment_of_a_small_graph():
    # R = {0, 1, 2}, E = {3, 4}; components {0, 1, 3} and {2, 4}, {2, 4} has
    # one cross edge; {0, 1, 3} has edges 0-1 (RR) and 1-3 (RE).
    scores = checks.exact_alignment(3, 2, {(0, 1), (1, 3), (2, 4)})
    assert scores["edges"] == 3 and scores["components"] == 2
    assert scores["precision"] == 1 and scores["recall"] == 1
    assert scores["network_quality"] == Fraction(2, 3)
    assert scores["harmonic"] == Fraction(3, 1 + 1 + Fraction(3, 2))
    # Without cross edges nothing is fundamental.
    assert checks.exact_alignment(2, 2, {(0, 1), (2, 3)})["harmonic"] == 0


def test_all_small_graphs_score_between_zero_and_one():
    pairs = list(itertools.combinations(range(4), 2))
    for mask in range(1 << len(pairs)):
        edges = {p for b, p in enumerate(pairs) if mask >> b & 1}
        h = checks.exact_alignment(2, 2, edges)["harmonic"]
        assert 0 <= h <= 1
