"""On-disk formats: checkpoints, CSV tables and their binary twins,
manifests, dataset directories.

Everything written here is deterministic for a given input: no timestamps,
no environment-dependent paths, floats always at 17 significant digits so a
reader can reconstruct the exact double. There are two binary formats:

- a checkpoint: a 4-byte magic, a JSON shape header, then raw little-endian
  float64 parameter blocks in declaration order;
- the twin `<name>.csv.f64` of a float64 matrix CSV: a 4-byte magic, the
  sha256 of the CSV bytes, the sha256 of the payload, the row and column
  counts, then the matrix as raw little-endian float64. A reader trusts the
  twin only while the CSV it sits beside still hashes to the recorded value,
  so an edited CSV is simply parsed again; the CSV stays the artifact.

Every file is written through `write_atomic`, so a write that fails part
way leaves the old file or none under the final name, never a truncated
one. Each writer returns `{path: sha256}` of the bytes it wrote, and the
readers can record the sha256 of the bytes they parsed, so a manifest names
exactly what a command read and wrote without reading any file again.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DataError, FormatError
from .model import EncoderSpec, GmcModel
from .synthdata import MultimodalDataset

CHECKPOINT_MAGIC = b"GMC1"
CHECKPOINT_VERSION = 1
TWIN_MAGIC = b"GMCM"
# magic, sha256 of the CSV bytes, sha256 of the payload, rows, columns
_TWIN_HEADER = struct.Struct("<4s32s32sQQ")


def format_float(x: float) -> str:
    """Round-trippable decimal text for a float64."""
    return format(float(x), ".17g")


def write_atomic(path, data: bytes) -> dict[Path, str]:
    """Write `data` to a sibling temporary file and move it onto `path` in
    one step: a write that fails part way (a full disk, say) leaves the old
    file or no file under `path`, never a truncated one. It guards against
    failed writes, not against power loss: nothing is fsynced. Returns
    `{path: sha256 of data}`, the record a manifest lists."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as fh:
            fh.write(data)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return {path: hashlib.sha256(data).hexdigest()}


def write_json(path, obj) -> dict[Path, str]:
    """`obj` as indented JSON with sorted keys and a final newline."""
    return write_atomic(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


# --- checkpoints ----------------------------------------------------------------


def _spec_to_header(spec: EncoderSpec) -> dict:
    return {"widths": list(spec.widths), "activations": list(spec.activations)}


def _spec_from_header(obj: dict) -> EncoderSpec:
    return EncoderSpec(tuple(obj["widths"]), tuple(obj["activations"]))


def save_checkpoint(path, model: GmcModel) -> dict[Path, str]:
    params = model.parameters()
    header = {
        "version": CHECKPOINT_VERSION,
        "seed": model.seed,
        "base_specs": [_spec_to_header(s) for s in model.base_specs],
        "head_spec": _spec_to_header(model.head_spec),
        "parameters": [{"name": k, "shape": list(p.shape)} for k, p in params.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = model.flat_parameters().astype("<f8", copy=False).tobytes()
    return write_atomic(path, CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob + payload)


def load_checkpoint(path, digests: dict | None = None) -> GmcModel:
    """Read a checkpoint whose header lists exactly the model's parameters,
    in declaration order; if `digests` is given, record the sha256 of the
    bytes read under `str(path)`."""
    raw = Path(path).read_bytes()
    if digests is not None:
        digests[str(path)] = hashlib.sha256(raw).hexdigest()
    with io.BytesIO(raw) as fh:
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
        if entries != [(name, p.shape) for name, p in model.parameters().items()]:
            raise FormatError("checkpoint header does not list the model's parameters in declaration order")
        size = 8 * model.parameter_count()
        payload = fh.read(size)
        if len(payload) != size:
            raise FormatError(f"checkpoint truncated: payload holds {len(payload)} of {size} bytes")
        if fh.read(1):
            raise FormatError("trailing bytes after checkpoint payload")
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    model.replace_parameters(flat)
    if not np.all(np.isfinite(flat)):
        name = next(k for k, p in model.parameters().items() if not np.all(np.isfinite(p)))
        raise FormatError(f"checkpoint parameter {name!r} holds a non-finite value")
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


def twin_path(path) -> Path:
    """Where the binary twin of the CSV at `path` lives."""
    return Path(f"{path}.f64")


def write_csv(path, header: list[str], rows, row_format: str | None = None) -> dict[Path, str]:
    """Header line plus one line per row; returns `{path: sha256}` of each
    file written.

    A 2-D float64 array is formatted in bulk ("%.17g" is the same conversion
    as `format_float`) and, if it has a row, also written to its twin, which
    holds exactly the array a parse of the CSV returns. Other rows are
    formatted cell by cell, or in bulk by `row_format` when it gives each
    cell the text `_cell` would ("%s" for a string, "%d" for an int,
    "%.17g" for a float).
    """
    lines = [",".join(header)]
    matrix = isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64
    cells = rows
    if matrix:
        row_format, cells = ",".join(["%.17g"] * rows.shape[1]), rows.tolist()
    if row_format is None:
        lines.extend(",".join(_cell(v) for v in row) for row in cells)
    else:
        lines.extend(row_format % tuple(row) for row in cells)
    path = Path(path)
    written = write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
    if matrix and rows.shape[0]:
        payload = rows.astype("<f8", order="C", copy=False).tobytes()
        twin = _TWIN_HEADER.pack(
            TWIN_MAGIC, bytes.fromhex(written[path]), hashlib.sha256(payload).digest(), *rows.shape
        )
        written |= write_atomic(twin_path(path), twin + payload)
    return written


def _read_twin(path, raw: bytes, raw_digest: bytes) -> tuple[list[str], np.ndarray] | None:
    """(header, matrix) from the twin of the CSV whose bytes are `raw` (with
    sha256 `raw_digest`), or
    None unless the twin is well-formed, was written with exactly these CSV
    bytes, its payload hash checks, its width equals the header's field count
    and every value is finite. The header comes from the CSV's first line,
    which must be non-empty and hold no carriage return, and the CSV must
    hold one line per row after it, so that a header name holding a line
    break cannot make the header read otherwise than the parse reads it."""
    try:
        blob = twin_path(path).read_bytes()
    except OSError:
        return None
    if len(blob) < _TWIN_HEADER.size:
        return None
    magic, csv_digest, payload_digest, n_rows, n_cols = _TWIN_HEADER.unpack_from(blob)
    payload = memoryview(blob)[_TWIN_HEADER.size :]
    if magic != TWIN_MAGIC or n_rows < 1 or len(payload) != 8 * n_rows * n_cols:
        return None
    end = raw.find(b"\n")
    if end < 1 or b"\r" in raw[:end] or raw.count(b"\n") != n_rows + 1:
        return None
    try:
        header = raw[:end].decode("utf-8").split(",")
    except UnicodeDecodeError:
        return None
    if n_cols != len(header):
        return None
    if csv_digest != raw_digest or payload_digest != hashlib.sha256(payload).digest():
        return None
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(n_rows, n_cols)
    return (header, data) if np.all(np.isfinite(data)) else None


def _reject_rows(path, header: list[str], rows: list[str], parse_error: str):
    """Raise the DataError for rows the bulk parser refused: the first ragged
    row, else the first cell `float` cannot read, else the parser's own
    reason (a cell such as `1_0` that `float` reads but a CSV does not hold)."""
    for r, line in enumerate(rows, 1):
        cells = line.count(",") + 1
        if cells != len(header):
            raise DataError(f"ragged CSV {path}: data row {r} has {cells} cells vs {len(header)} header fields")
    for line in rows:
        for cell in line.split(","):
            try:
                float(cell)
            except ValueError as err:
                raise DataError(f"non-numeric cell in {path}: {err}") from err
    raise DataError(f"non-numeric cell in {path}: {parse_error}")


def read_matrix_csv(path, digests: dict | None = None) -> tuple[list[str], np.ndarray]:
    """Read a numeric CSV written by write_csv: header plus float rows.

    Every data line must hold one decimal number per header field: a blank
    line, a `#` or any other text is an error, never skipped. A trusted twin
    (see `_read_twin`) gives the same result without parsing; otherwise the
    text is read with universal newlines, as a text-mode file reads it. If
    `digests` is given, the sha256 of the bytes read is recorded in it under
    `str(path)`.
    """
    raw = Path(path).read_bytes()
    raw_digest = hashlib.sha256(raw).digest()
    if digests is not None:
        digests[str(path)] = raw_digest.hex()
    twin = _read_twin(path, raw, raw_digest)
    if twin is not None:
        return twin
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise DataError(f"CSV is not UTF-8 text: {path} ({err})") from err
    text = text.replace("\r\n", "\n").replace("\r", "\n").strip("\n")
    lines = text.split("\n")
    if not lines or not lines[0]:
        raise DataError(f"empty CSV: {path}")
    header, rows = lines[0].split(","), lines[1:]
    if not rows:
        return header, np.array([], dtype=np.float64)
    try:
        data = np.loadtxt(rows, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    except ValueError as err:
        _reject_rows(path, header, rows, str(err))
    # loadtxt skips blank lines, so a short count means one was there
    if data.shape != (len(rows), len(header)):
        _reject_rows(path, header, rows, "blank line")
    if not np.all(np.isfinite(data)):
        row, col = np.argwhere(~np.isfinite(data))[0]
        raise DataError(f"non-finite cell in {path}: data row {row + 1}, column {header[col]}")
    return header, data


# --- manifests --------------------------------------------------------------------


def hash_entry(path_as_given, digests: dict) -> dict:
    """Manifest entry for an input: its path as given and the sha256 its
    reader recorded in `digests` while parsing it."""
    key = str(path_as_given)
    return {"path": key, "sha256": digests[key]}


def write_manifest(path, command: str, config: dict, inputs: dict, outputs: dict) -> dict[Path, str]:
    """Record a command run: configs, input paths exactly as given, and as
    `outputs` the `{path: sha256}` records the writers returned, each listed
    under its path relative to the manifest's directory. Deliberately carries
    no timestamps or absolute paths so identical runs produce identical bytes."""
    root = Path(path).parent
    manifest = {
        "command": command,
        "config": config,
        "inputs": inputs,
        "outputs": {
            p.relative_to(root).as_posix(): {"path": str(p), "sha256": digest}
            for p, digest in outputs.items()
        },
        "tool_version": __version__,
    }
    return write_json(path, manifest)


# --- dataset directories -----------------------------------------------------------


def modality_filename(m: int) -> str:
    return f"modality_{m + 1}.csv"


def save_dataset(out_dir, dataset: MultimodalDataset) -> dict[Path, str]:
    """One CSV (and its twin) per modality plus labels.csv; returns
    `{path: sha256}` of each file written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = {}
    for m, x in enumerate(dataset.modalities):
        written |= write_csv(out / modality_filename(m), [f"x{j}" for j in range(x.shape[1])], x)
    written |= write_csv(
        out / "labels.csv",
        ["label", "is_train"],
        zip(dataset.labels, dataset.is_train),
    )
    return written


def load_dataset(dataset_dir, digests: dict | None = None) -> MultimodalDataset:
    """Read a dataset directory; `digests`, if given, receives the sha256 of
    each CSV read, as `read_matrix_csv` records it."""
    root = Path(dataset_dir)
    if not (root / "labels.csv").exists():
        raise DataError(f"not a dataset directory (no labels.csv): {dataset_dir}")
    header, label_data = read_matrix_csv(root / "labels.csv", digests)
    if header != ["label", "is_train"]:
        raise FormatError(f"labels.csv has unexpected header {header!r}")
    if label_data.size == 0:
        raise DataError(f"labels.csv holds no rows: {dataset_dir}")
    labels, split = label_data[:, 0], label_data[:, 1]
    bad_label = (labels < 0) | (labels != np.floor(labels)) | (labels >= 2.0**63)  # int64 holds below 2**63
    for name, column, bad, rule in (
        ("label", labels, bad_label, "a non-negative integer below 2**63"),
        ("is_train", split, (split != 0.0) & (split != 1.0), "0 or 1"),
    ):
        rows = np.flatnonzero(bad)
        if rows.size:
            raise DataError(f"labels.csv: {name} {column[rows[0]]:g} in data row {rows[0] + 1} is not {rule}")
    is_train = split == 1.0
    if is_train.all() or not is_train.any():
        raise DataError(f"labels.csv: split leaves an empty train or test set: {dataset_dir}")
    labels = labels.astype(np.int64)
    modalities = []
    m = 0
    while (root / modality_filename(m)).exists():
        _, x = read_matrix_csv(root / modality_filename(m), digests)
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
