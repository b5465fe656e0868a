"""On-disk formats: checkpoints, CSV tables, manifests, dataset directories.

Everything written here is deterministic for a given input: no timestamps,
no environment-dependent paths, floats always at 17 significant digits so a
reader can reconstruct the exact double. Checkpoints are the one binary
format; a 4-byte magic, a JSON shape header, then raw little-endian float64
parameter blocks in declaration order.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DataError, FormatError
from .model import EncoderSpec, GmcModel
from .synthdata import MultimodalDataset

CHECKPOINT_MAGIC = b"GMC1"
CHECKPOINT_VERSION = 1


def format_float(x: float) -> str:
    """Round-trippable decimal text for a float64."""
    return format(float(x), ".17g")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# --- checkpoints ----------------------------------------------------------------


def _spec_to_header(spec: EncoderSpec) -> dict:
    return {"widths": list(spec.widths), "activations": list(spec.activations)}


def _spec_from_header(obj: dict) -> EncoderSpec:
    return EncoderSpec(tuple(obj["widths"]), tuple(obj["activations"]))


def save_checkpoint(path, model: GmcModel) -> None:
    params = model.parameters()
    header = {
        "version": CHECKPOINT_VERSION,
        "seed": model.seed,
        "base_specs": [_spec_to_header(s) for s in model.base_specs],
        "head_spec": _spec_to_header(model.head_spec),
        "parameters": [{"name": k, "shape": list(p.shape)} for k, p in params.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for p in params.values():
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> GmcModel:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"not a checkpoint: bad magic {magic!r}")
        length = fh.read(4)
        if len(length) != 4:
            raise FormatError("checkpoint truncated in header length")
        (header_len,) = struct.unpack("<I", length)
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise FormatError(f"corrupt checkpoint header: {err}") from err
        if not isinstance(header, dict):
            raise FormatError("corrupt checkpoint header: not a JSON object")
        if header.get("version") != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {header.get('version')!r}")
        try:
            model = GmcModel(
                [_spec_from_header(s) for s in header["base_specs"]],
                _spec_from_header(header["head_spec"]),
                seed=header["seed"],
            )
            entries = [(str(e["name"]), tuple(e["shape"])) for e in header["parameters"]]
        except (KeyError, TypeError, ValueError, ConfigError) as err:
            raise FormatError(f"corrupt checkpoint header: missing or malformed field ({err})") from err
        expected = model.parameters()
        values = {}
        for name, shape in entries:
            if name not in expected or expected[name].shape != shape:
                raise FormatError(f"checkpoint parameter {name!r} does not fit the model shape")
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(8 * count)
            if len(raw) != 8 * count:
                raise FormatError(f"checkpoint truncated in parameter {name!r}")
            values[name] = np.frombuffer(raw, dtype="<f8").reshape(shape)
            if not np.all(np.isfinite(values[name])):
                raise FormatError(f"checkpoint parameter {name!r} holds a non-finite value")
        if len(values) != len(expected):
            raise FormatError("checkpoint is missing parameters")
        if fh.read(1):
            raise FormatError("trailing bytes after checkpoint payload")
    model.replace_parameters(values)
    return model


# --- CSV ------------------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_matrix_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a numeric CSV written by write_csv: header plus float rows."""
    text = Path(path).read_text(encoding="utf-8").strip("\n")
    lines = text.split("\n")
    if not lines or not lines[0]:
        raise DataError(f"empty CSV: {path}")
    header = lines[0].split(",")
    try:
        data = np.array(
            [[float(cell) for cell in line.split(",")] for line in lines[1:]], dtype=np.float64
        )
    except ValueError as err:
        raise DataError(f"non-numeric cell in {path}: {err}") from err
    if lines[1:] and data.shape[1] != len(header):
        raise DataError(f"ragged CSV {path}: {data.shape[1]} columns vs {len(header)} header fields")
    if not np.all(np.isfinite(data)):
        row, col = np.argwhere(~np.isfinite(data))[0]
        raise DataError(f"non-finite cell in {path}: data row {row + 1}, column {header[col]}")
    return header, data


# --- manifests --------------------------------------------------------------------


def hash_entry(path_as_given) -> dict:
    return {"path": str(path_as_given), "sha256": sha256_file(path_as_given)}


def write_manifest(path, command: str, config: dict, inputs: dict, outputs: dict) -> None:
    """Record a command run: configs, input/output paths exactly as given,
    and content hashes. Deliberately carries no timestamps or absolute paths
    so identical runs produce identical bytes."""
    manifest = {
        "command": command,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "tool_version": __version__,
    }
    Path(path).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# --- dataset directories -----------------------------------------------------------


def modality_filename(m: int) -> str:
    return f"modality_{m + 1}.csv"


def save_dataset(out_dir, dataset: MultimodalDataset) -> list[str]:
    """One CSV per modality plus labels.csv; returns the filenames written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for m, x in enumerate(dataset.modalities):
        name = modality_filename(m)
        write_csv(out / name, [f"x{j}" for j in range(x.shape[1])], x)
        written.append(name)
    write_csv(
        out / "labels.csv",
        ["label", "is_train"],
        zip(dataset.labels, dataset.is_train),
    )
    written.append("labels.csv")
    return written


def load_dataset(dataset_dir) -> MultimodalDataset:
    root = Path(dataset_dir)
    if not (root / "labels.csv").exists():
        raise DataError(f"not a dataset directory (no labels.csv): {dataset_dir}")
    header, label_data = read_matrix_csv(root / "labels.csv")
    if header != ["label", "is_train"]:
        raise FormatError(f"labels.csv has unexpected header {header!r}")
    if label_data.size == 0:
        raise DataError(f"labels.csv holds no rows: {dataset_dir}")
    labels = label_data[:, 0].astype(np.int64)
    is_train = label_data[:, 1].astype(bool)
    modalities = []
    m = 0
    while (root / modality_filename(m)).exists():
        _, x = read_matrix_csv(root / modality_filename(m))
        if x.shape[0] != labels.shape[0]:
            raise DataError(f"{modality_filename(m)} row count does not match labels.csv")
        modalities.append(x)
        m += 1
    if len(modalities) < 2:
        raise DataError(f"dataset directory holds {len(modalities)} modalities; need at least 2")
    return MultimodalDataset(
        modalities=modalities,
        labels=labels,
        is_train=is_train,
        complete=np.concatenate(modalities, axis=1),
        config=None,
    )
