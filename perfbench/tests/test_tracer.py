"""The traced run changes no artifact byte and counts what the inputs imply.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import layer_metrics, load_traces  # noqa: E402

EPOCHS, BATCH, N_TRAIN = 2, 32, 192  # 240 samples, 80% train: 6 full batches per epoch


def gmc(cwd, args, trace_dir=None, threads="1"):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), GMC_THREADS=threads, OPENBLAS_NUM_THREADS="1")
    if trace_dir is None:
        cmd = [sys.executable, "-m", "gmc.cli"]
    else:
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(trace_dir / "main.json")]
    subprocess.run(cmd + args, cwd=cwd, env=env, check=True, capture_output=True)


def tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("traced")
    (root / "synth.json").write_text(json.dumps({"n_samples": 240}))
    (root / "train.json").write_text(json.dumps({"epochs": EPOCHS, "batch_size": BATCH}))
    (root / "grid.json").write_text(json.dumps({"epochs": EPOCHS, "batch_size": BATCH, "tau": [0.1, 0.5]}))
    gmc(root, ["gen-data", "--config", "synth.json", "--seed", "3", "--out", "data"])
    return root


@pytest.mark.parametrize(
    "args, threads",
    [
        (["train", "--config", "../train.json", "--dataset", "../data", "--out", "out"], "1"),
        (["sweep", "--config", "../grid.json", "--dataset", "../data", "--out", "out"], "2"),
    ],
    ids=["train", "sweep"],
)
def test_traced_artifacts_are_byte_identical(data, args, threads):
    name = args[0]
    (data / f"{name}_plain").mkdir()
    (data / f"{name}_traced").mkdir()
    gmc(data / f"{name}_plain", args, threads=threads)
    gmc(data / f"{name}_traced", args, data / f"{name}_trace", threads=threads)
    assert tree(data / f"{name}_plain") == tree(data / f"{name}_traced")

    metrics, facts = layer_metrics(load_traces(data / f"{name}_trace"))
    points = 2 if name == "sweep" else 1
    assert metrics["model.steps"] == points * EPOCHS * N_TRAIN // BATCH
    assert metrics["cli.sweep_points"] == (2 if name == "sweep" else 0)
    assert facts["unwrapped"] == []
    for loop, nodes in facts["nodes_per_loop"]:
        assert len(nodes) == 1, (loop, nodes)
    assert metrics["tensor.nodes_per_step"] > 0
    assert metrics["loss.calls"] == metrics["model.steps"]
    assert metrics["tensor.matmul.calls"] > 0
    for phase in ("model.encode_s", "model.optimizer_s", "model.step_self_s", "tensor.backward_s"):
        assert metrics[phase] > 0, phase
