"""Corrupted inputs end in one `error:` line, never a traceback: exit 2 for a
config, exit 3 for a CSV or a checkpoint.

Hypothesis corrupts configs, dataset and embedding CSVs, and checkpoints, and
runs the command that reads them through `gmc.cli.main` in-process, so an
exception that escapes `main` fails the test with its own traceback. Every
corruption is chosen so that no valid reading of the file exists: a
truncation ends a row early, a flipped header byte is not UTF-8, and so on.
The inputs come from a 40-sample data set with its matrix twins and a
1-epoch checkpoint, so every corrupted dataset CSV also leaves a stale twin.
"""

import contextlib
import io
import json
import math
import random
import shutil
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gmc.cli import main
from gmc.downstream import ProbeConfig
from gmc.model import ModelConfig, TrainConfig
from gmc.synthdata import SynthConfig

SYNTH = {"n_samples": 40, "n_classes": 3, "modality_dims": [3, 2], "style_dim": 1, "seed": 1}
TRAIN = {"epochs": 1, "batch_size": 16, "model": {"d": 4, "s": 4, "hidden": 4}}
PROBE = {"epochs": 1, "hidden": [4]}
FAST = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("faults")
    for name, config in (("synth.json", SYNTH), ("train.json", TRAIN), ("probe.json", PROBE)):
        (root / name).write_text(json.dumps(config))
    assert main(["gen-data", "--config", str(root / "synth.json"), "--out", str(root / "data")]) == 0
    args = ["--dataset", str(root / "data"), "--out", str(root / "run")]
    assert main(["train", "--config", str(root / "train.json"), *args]) == 0
    for pathway in ("complete", "1"):
        args = ["--checkpoint", str(root / "run" / "checkpoint.gmc"), "--dataset", str(root / "data")]
        assert main(["encode", *args, "--pathway", pathway, "--split", "test", "--out", str(root / pathway)]) == 0
    return root


def run_expecting_error(argv, expected: int):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code == expected, (code, lines)
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def command(kind, work):
    """argv for `kind`, reading the inputs copied into `work`."""
    checkpoint, dataset, out = str(work / "checkpoint.gmc"), str(work / "data"), str(work / "out")
    if kind == "gen-data":
        return ["gen-data", "--config", str(work / "config.json"), "--out", out]
    if kind == "train":
        return ["train", "--config", str(work / "config.json"), "--dataset", dataset, "--out", out]
    if kind == "encode":
        return ["encode", "--checkpoint", checkpoint, "--dataset", dataset, "--pathway", "1", "--out", out]
    if kind == "eval-probe":
        config = str(work / "config.json")
        return ["eval-probe", "--config", config, "--checkpoint", checkpoint, "--dataset", dataset, "--out", out]
    reference, evaluation = str(work / "reference.csv"), str(work / "evaluation.csv")
    return ["eval-dca", "--reference", reference, "--evaluation", evaluation, "--out", out]


@contextlib.contextmanager
def workspace(root, kind):
    """A fresh copy of the inputs `kind` reads, with its default config."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(root / "data", work / "data")
        shutil.copy(root / "run" / "checkpoint.gmc", work / "checkpoint.gmc")
        shutil.copy(root / "complete" / "embeddings.csv", work / "reference.csv")
        shutil.copy(root / "1" / "embeddings.csv", work / "evaluation.csv")
        config = {"gen-data": SYNTH, "train": TRAIN, "eval-probe": PROBE}.get(kind, {})
        (work / "config.json").write_text(json.dumps(config))
        yield work


# --- configs ---------------------------------------------------------------------

def field_names(cls):
    return sorted(f.name for f in fields(cls))


CONFIG_KEYS = {
    "gen-data": field_names(SynthConfig),
    "train": sorted(field_names(TrainConfig) + ["model"]),
    "eval-probe": field_names(ProbeConfig),
}
# No config key accepts any of these: every key is an integer, a finite
# number, a bool, a known name, a list of integers or numbers, or (`model`)
# an object.
WRONG_VALUES = ["x", {"k": 1}, None, math.nan, math.inf, -math.inf, [["x"]], -1.5]


def not_utf8(blob, chooser):
    """`blob` with 0xff, or 0xfe 0xff, put in or after it: bytes that never
    occur in UTF-8 text."""
    at = chooser.choice([len(blob), chooser.randrange(len(blob))])
    return blob[:at] + chooser.choice([b"\xff", b"\xfe\xff"]) + blob[at:]


@settings(FAST, max_examples=100)
@given(
    kind=st.sampled_from(sorted(CONFIG_KEYS)),
    fault=st.sampled_from(["wrong_value", "unknown_key", "model_value", "duplicate_key", "truncated", "not_utf8"]),
    pick=st.integers(0, 2**32 - 1),
)
@example(kind="train", fault="not_utf8", pick=0)
@example(kind="train", fault="duplicate_key", pick=0)
def test_corrupted_config_is_rejected(inputs, kind, fault, pick):
    chooser = random.Random(pick)
    with workspace(inputs, kind) as work:
        config = dict(json.loads((work / "config.json").read_text()))
        if fault == "wrong_value" or (fault == "model_value" and kind != "train"):
            key = chooser.choice(CONFIG_KEYS[kind])
            config[key] = chooser.choice(WRONG_VALUES)
        elif fault == "model_value":
            key = chooser.choice(field_names(ModelConfig))
            config["model"] = dict(config["model"], **{key: chooser.choice(WRONG_VALUES)})
        elif fault == "unknown_key":
            config["k" + "".join(chooser.choice("abcdefgh_") for _ in range(chooser.randint(0, 6)))] = 1
        text = json.dumps(config)
        if fault == "duplicate_key":
            # repeat one key, with its own value, at the end of its object
            key = chooser.choice(sorted(config) + sorted(config.get("model", {})))
            owner = config if key in config else config["model"]
            at = len(text) - 1 if owner is config else text.index("}")  # the model object's end
            text = text[:at] + ", " + json.dumps({key: owner[key]})[1:-1] + text[at:]
        if fault == "truncated":
            text = text[: chooser.randrange(len(text) - 1)]
        blob = text.encode()
        (work / "config.json").write_bytes(not_utf8(blob, chooser) if fault == "not_utf8" else blob)
        run_expecting_error(command(kind, work), 2)


# --- CSVs ------------------------------------------------------------------------

DATASET_FILES = ["modality_1.csv", "modality_2.csv", "labels.csv"]


def corrupt_csv(path, fault, chooser, partner):
    """Rewrite the CSV at `path` so that no valid reading is left."""
    if fault == "not_utf8":
        path.write_bytes(not_utf8(path.read_bytes(), chooser))
        return
    lines = path.read_text().splitlines()
    row = chooser.randrange(1, len(lines))
    cells = lines[row].split(",")
    if fault == "truncated":
        # end the text just before a comma, so the last row is short
        text = "\n".join(lines)
        commas = [i for i, ch in enumerate(text) if ch == ","]
        path.write_text(text[: chooser.choice(commas)])
        return
    if fault == "ragged":
        cells = cells[:-1] if len(cells) > 1 and chooser.random() < 0.5 else cells + ["0"]
    elif fault == "header_only":
        lines = lines[:1]
    elif fault == "non_finite":
        cells[chooser.randrange(len(cells))] = chooser.choice(["nan", "inf", "-inf", "1e999", "-NaN"])
    elif fault == "swapped_headers":
        # trade header lines with a file whose header differs: labels.csv's
        # two names are checked, and the widths no longer fit the rows
        other = partner.read_text().splitlines()
        lines[0], other[0] = other[0], lines[0]
        partner.write_text("\n".join(other) + "\n")
    elif fault == "bad_label":
        cells[0] = chooser.choice(["-1", "1.5", "0.25", "-3e2"])
    elif fault == "bad_split_flag":
        cells[1] = chooser.choice(["2", "0.5", "-1", "1e3"])
    elif fault == "one_split":
        flag = chooser.choice(["0", "1"])
        lines = lines[:1] + [line.rsplit(",", 1)[0] + "," + flag for line in lines[1:]]
    if fault not in ("header_only", "one_split", "swapped_headers"):
        lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


CSV_FAULTS = ["truncated", "ragged", "header_only", "non_finite", "not_utf8"]
LABEL_FAULTS = ["bad_label", "bad_split_flag", "one_split"]


@settings(FAST, max_examples=150)
@given(
    target=st.sampled_from(DATASET_FILES + ["reference.csv", "evaluation.csv"]),
    fault=st.sampled_from(CSV_FAULTS + ["swapped_headers"] + LABEL_FAULTS),
    kind=st.sampled_from(["train", "encode", "eval-probe"]),
    pick=st.integers(0, 2**32 - 1),
)
@example(target="evaluation.csv", fault="header_only", kind="train", pick=0)
@example(target="reference.csv", fault="not_utf8", kind="train", pick=0)
@example(target="modality_2.csv", fault="not_utf8", kind="encode", pick=0)
@example(target="reference.csv", fault="header_only", kind="train", pick=0)
@example(target="labels.csv", fault="one_split", kind="eval-probe", pick=0)
@example(target="labels.csv", fault="one_split", kind="eval-probe", pick=1)
@example(target="labels.csv", fault="bad_label", kind="eval-probe", pick=0)
@example(target="labels.csv", fault="bad_split_flag", kind="eval-probe", pick=0)
def test_corrupted_csv_is_rejected(inputs, target, fault, kind, pick):
    """Dataset files go to `kind`; embedding files go to eval-dca."""
    chooser = random.Random(pick)
    embedding = target.endswith(("reference.csv", "evaluation.csv"))
    if embedding:
        kind = "eval-dca"
        fault = fault if fault in CSV_FAULTS else chooser.choice(CSV_FAULTS)
    elif fault in LABEL_FAULTS:
        target = "labels.csv"
    with workspace(inputs, kind) as work:
        path = work / target if embedding else work / "data" / target
        partner = "labels.csv" if target != "labels.csv" else chooser.choice(DATASET_FILES[:2])
        corrupt_csv(path, fault, chooser, work / "data" / partner)
        run_expecting_error(command(kind, work), 3)


# --- checkpoints -----------------------------------------------------------------


@settings(FAST, max_examples=100)
@given(
    fault=st.sampled_from(["truncated", "flipped_header_byte", "non_finite_weight"]),
    kind=st.sampled_from(["encode", "eval-probe"]),
    pick=st.integers(0, 2**32 - 1),
)
def test_corrupted_checkpoint_is_rejected(inputs, fault, kind, pick):
    chooser = random.Random(pick)
    with workspace(inputs, kind) as work:
        path = work / "checkpoint.gmc"
        blob = bytearray(path.read_bytes())
        header_end = 8 + int.from_bytes(blob[4:8], "little")
        if fault == "truncated":
            blob = blob[: chooser.randrange(len(blob))]
        elif fault == "flipped_header_byte":
            # every bit of one byte flipped: a bad magic, a wrong header
            # length, or an ASCII JSON header that is no longer UTF-8
            blob[chooser.randrange(header_end)] ^= 0xFF
        else:
            # the sign-and-exponent bytes of one little-endian weight: inf or NaN
            top = header_end + 8 * chooser.randrange((len(blob) - header_end) // 8) + 6
            blob[top : top + 2] = chooser.choice([b"\xf0\x7f", b"\xf8\xff"])
        path.write_bytes(bytes(blob))
        run_expecting_error(command(kind, work), 3)
