"""Output checks that share no code with gmc.

Each check reads artifacts from disk, recomputes what they should hold from
the documented formats and maths, and raises ``CheckError`` on the first
disagreement:

- embeddings: a reader for the documented ``checkpoint.gmc`` layout and a
  plain numpy forward pass through the base encoder and the shared head;
- alignment: a symmetric k-NN graph built here, ranked by (distance, index),
  and scored with exact ``Fraction`` arithmetic;
- properties: loss traces, whole-number accuracies, sweep aggregates and
  manifest hashes.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

EMBED_RTOL = 1e-9  # relative to the largest |z| of the file
SCORE_RTOL = 1e-12


class CheckError(Exception):
    """An artifact disagrees with its independent recomputation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# --- plain readers -----------------------------------------------------------------


def read_rows(path) -> tuple[list[str], list[list[str]]]:
    text = Path(path).read_text(encoding="utf-8")
    _require(text.endswith("\n"), f"{path}: missing final newline")
    lines = text[:-1].split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_matrix(path) -> tuple[list[str], np.ndarray]:
    header, rows = read_rows(path)
    _require(all(len(r) == len(header) for r in rows), f"{path}: ragged rows")
    return header, np.array([[float(c) for c in r] for r in rows], dtype=np.float64).reshape(
        len(rows), len(header)
    )


class Dataset:
    """A gen-data directory: modality_1.csv .. modality_M.csv and labels.csv."""

    def __init__(self, root):
        root = Path(root)
        header, rows = read_rows(root / "labels.csv")
        _require(header == ["label", "is_train"], f"{root}/labels.csv: header {header}")
        self.labels = np.array([int(r[0]) for r in rows])
        self.is_train = np.array([r[1] == "1" for r in rows])
        self.modalities = []
        m = 1
        while (root / f"modality_{m}.csv").exists():
            _, x = read_matrix(root / f"modality_{m}.csv")
            _require(x.shape[0] == len(rows), f"modality_{m}.csv: row count")
            self.modalities.append(x)
            m += 1

    def split(self, name: str) -> np.ndarray:
        return {"train": self.is_train, "test": ~self.is_train}.get(
            name, np.ones_like(self.is_train)
        )

    def view(self, pathway, split: str) -> np.ndarray:
        """pathway is "complete" or a 1-based modality index."""
        mask = self.split(split)
        if pathway == "complete":
            return np.concatenate(self.modalities, axis=1)[mask]
        return self.modalities[int(pathway) - 1][mask]


# --- checkpoint --------------------------------------------------------------------


class Checkpoint:
    """The documented layout: magic ``GMC1``, uint32 LE header length, JSON
    header, then each parameter's LE float64 C-order bytes in header order.
    Base specs are modality-first, complete encoder last; every MLP layer
    holds a (fan_in, fan_out) weight then a (fan_out,) bias."""

    def __init__(self, path):
        blob = Path(path).read_bytes()
        _require(blob[:4] == b"GMC1", f"{path}: bad magic")
        _require(len(blob) >= 8, f"{path}: truncated header length")
        (h,) = struct.unpack_from("<I", blob, 4)
        self.header = json.loads(blob[8 : 8 + h].decode("utf-8"))
        specs = self.header["base_specs"] + [self.header["head_spec"]]
        expected = []
        for spec in specs:
            w = spec["widths"]
            _require(len(spec["activations"]) == len(w) - 2, f"{path}: activations")
            for fan_in, fan_out in zip(w, w[1:]):
                expected += [(fan_in, fan_out), (fan_out,)]
        shapes = [tuple(p["shape"]) for p in self.header["parameters"]]
        _require(shapes == expected, f"{path}: parameter shapes {shapes} != layout {expected}")
        sizes = [math.prod(s) for s in shapes]
        payload = blob[8 + h :]
        _require(len(payload) == 8 * sum(sizes), f"{path}: payload is {len(payload)} bytes")
        flat = np.frombuffer(payload, dtype="<f8")
        _require(bool(np.isfinite(flat).all()), f"{path}: non-finite parameter")
        arrays, offset = [], 0
        for shape, size in zip(shapes, sizes):
            arrays.append(flat[offset : offset + size].reshape(shape))
            offset += size
        self.encoders = []  # (layers [(w, b), ...], activations) per spec
        for spec in specs:
            n = len(spec["widths"]) - 1
            layers = [(arrays[2 * i], arrays[2 * i + 1]) for i in range(n)]
            arrays = arrays[2 * n :]
            self.encoders.append((layers, spec["activations"]))

    @property
    def modality_dims(self) -> list[int]:
        return [spec["widths"][0] for spec in self.header["base_specs"][:-1]]

    def embed(self, pathway, x: np.ndarray) -> np.ndarray:
        """Latents of rows x through a pathway ("complete" or 1-based m)."""
        base = len(self.encoders) - 2 if pathway == "complete" else int(pathway) - 1
        return _mlp(*self.encoders[-1], _mlp(*self.encoders[base], x))


def _mlp(layers, activations, x):
    with np.errstate(over="ignore"):
        for i, (w, b) in enumerate(layers):
            x = x @ w + b
            if i < len(layers) - 1:
                x = np.maximum(x, 0.0) if activations[i] == "relu" else x / (1.0 + np.exp(-x))
    return x


# --- alignment ---------------------------------------------------------------------


def _exact_d2(a, b) -> Fraction:
    return sum((Fraction(float(u)) - Fraction(float(v))) ** 2 for u, v in zip(a, b))


def knn_edges(points: np.ndarray, k: int, block: int = 256) -> set:
    """Symmetric k-NN edges: {u, v} when either is among the other's k nearest
    by (squared distance, index). Candidates come from a Gram-matrix pass;
    ranks come from directly computed distances, and near-ties at the k-th
    place are settled with exact rational distances."""
    n = points.shape[0]
    sq = np.einsum("ij,ij->i", points, points)
    slack = 1e-9 * (2.0 * float(sq.max()) + 1.0)  # bounds the Gram rounding error
    width = min(n - 1, k + 8)
    edges = set()
    for start in range(0, n, block):
        rows = np.arange(start, min(start + block, n))
        gram = sq[rows, None] + sq[None, :] - 2.0 * (points[rows] @ points.T)
        gram[np.arange(rows.size), rows] = np.inf
        cand = np.argpartition(gram, width - 1, axis=1)[:, :width]
        for r, i in enumerate(rows):
            c = cand[r]
            d = _distances(points, i, c)
            kth = float(np.partition(d, k - 1)[k - 1])
            if width < n - 1 and float(gram[r, c].max()) <= kth + 2 * slack:
                c = np.delete(np.arange(n), i)  # a non-candidate may be as near
                d = _distances(points, i, c)
                kth = float(np.partition(d, k - 1)[k - 1])
            near_tie = np.abs(d - kth) <= 1e-9 * kth
            if near_tie.sum() < 2:  # the k-th place alone: no tie to settle
                near_tie[:] = False
            keys = [
                (_exact_d2(points[i], points[j]) if tie else float(dist), int(j))
                for j, dist, tie in zip(c, d, near_tie)
            ]
            for _, j in sorted(keys)[:k]:
                edges.add((min(int(i), j), max(int(i), j)))
    return edges


def _distances(points, i, c):
    diff = points[c] - points[i]
    return np.einsum("ij,ij->i", diff, diff)


def exact_alignment(n_reference: int, n_evaluation: int, edges) -> dict:
    """Exact DCA scores of a graph whose first n_reference vertices are R."""
    n = n_reference + n_evaluation
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    comps: dict[int, list[int]] = {}  # root -> [n_r, n_e, same-origin edges, cross edges]
    for v in range(n):
        comps.setdefault(find(v), [0, 0, 0, 0])[0 if v < n_reference else 1] += 1
    same = cross = 0
    for u, v in edges:
        slot = comps[find(u)]
        if (u < n_reference) == (v < n_reference):
            slot[2] += 1
            same += 1
        else:
            slot[3] += 1
            cross += 1
    in_r = in_e = 0
    for n_r, n_e, s, x in comps.values():
        consistency = 1 - Fraction(abs(n_r - n_e), n_r + n_e)
        quality = Fraction(x, s + x) if s + x else Fraction(0)
        if consistency > 0 and quality > 0:
            in_r += n_r
            in_e += n_e
    precision = Fraction(in_e, n_evaluation)
    recall = Fraction(in_r, n_reference)
    quality = Fraction(cross, same + cross) if same + cross else Fraction(0)
    if min(precision, recall, quality) == 0:
        harmonic = Fraction(0)
    else:
        harmonic = 3 / (1 / precision + 1 / recall + 1 / quality)
    return {
        "edges": same + cross,
        "components": len(comps),
        "precision": precision,
        "recall": recall,
        "network_quality": quality,
        "network_consistency": 1 - Fraction(abs(n_reference - n_evaluation), n),
        "harmonic": harmonic,
    }


def alignment_of(reference: np.ndarray, evaluation: np.ndarray, k: int = 5) -> dict:
    points = np.concatenate([reference, evaluation], axis=0)
    return exact_alignment(reference.shape[0], evaluation.shape[0], knn_edges(points, k))


# --- per-command checks ------------------------------------------------------------


def check_manifest(out_dir) -> None:
    """Every output the manifest lists hashes to the recorded sha256."""
    out = Path(out_dir)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    _require(bool(manifest["outputs"]), f"{out}: manifest lists no outputs")
    for name, entry in manifest["outputs"].items():
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        _require(digest == entry["sha256"], f"{out}/{name}: sha256 differs from manifest")


def check_loss_trace(path, epochs: int, modality_count: int, batch_size: int) -> None:
    """One finite row per epoch, term_mean = loss / (M*B) for full batches,
    and the last loss below the first."""
    header, rows = read_rows(path)
    _require(header == ["epoch", "loss", "term_mean"], f"{path}: header {header}")
    _require(len(rows) == epochs, f"{path}: {len(rows)} rows for {epochs} epochs")
    losses = []
    for e, row in enumerate(rows):
        _require(len(row) == 3 and row[0] == str(e), f"{path}: row {e} is {row}")
        loss, term_mean = float(row[1]), float(row[2])
        _require(math.isfinite(loss) and math.isfinite(term_mean), f"{path}: non-finite row {e}")
        _require(
            abs(term_mean * modality_count * batch_size - loss) <= 1e-9 * max(1.0, abs(loss)),
            f"{path}: term_mean {term_mean} != loss/(M*B) in row {e}",
        )
        losses.append(loss)
    if epochs > 1:
        _require(losses[-1] < losses[0], f"{path}: loss did not fall ({losses[0]} -> {losses[-1]})")


def check_checkpoint(path, dataset: Dataset) -> Checkpoint:
    ckpt = Checkpoint(path)
    dims = [x.shape[1] for x in dataset.modalities]
    _require(ckpt.modality_dims == dims, f"{path}: modality widths {ckpt.modality_dims} != {dims}")
    return ckpt


def check_embeddings(out_dir, ckpt: Checkpoint, dataset: Dataset, pathway, split: str) -> None:
    header, z = read_matrix(Path(out_dir) / "embeddings.csv")
    expected = ckpt.embed(pathway, dataset.view(pathway, split))
    _require(z.shape == expected.shape, f"{out_dir}: shape {z.shape} != {expected.shape}")
    _require(header == [f"z{j}" for j in range(z.shape[1])], f"{out_dir}: header")
    scale = float(np.abs(expected).max()) if expected.size else 1.0
    worst = float(np.abs(z - expected).max()) if z.size else 0.0
    _require(worst <= EMBED_RTOL * scale, f"{out_dir}: embeddings differ by {worst:.3g}")
    check_manifest(out_dir)


def check_dca_report(out_dir, reference_csv, evaluation_csv, k: int = 5) -> dict:
    _, ref = read_matrix(reference_csv)
    _, ev = read_matrix(evaluation_csv)
    exact = alignment_of(ref, ev, k)
    report = json.loads((Path(out_dir) / "report.json").read_text(encoding="utf-8"))
    edges = sum(c["edges_rr"] + c["edges_ee"] + c["edges_re"] for c in report["components"])
    _require(edges == exact["edges"], f"{out_dir}: {edges} edges, expected {exact['edges']}")
    _require(
        len(report["components"]) == exact["components"],
        f"{out_dir}: {len(report['components'])} components, expected {exact['components']}",
    )
    for key in ("precision", "recall", "network_quality", "network_consistency", "harmonic"):
        _require(
            _close(float(report[key]), float(exact[key]), SCORE_RTOL),
            f"{out_dir}: {key} {report[key]!r}, exact {float(exact[key])!r}",
        )
    check_manifest(out_dir)
    return exact


def check_accuracy(value: float, n: int, where: str) -> None:
    """A whole number of correct answers over n."""
    correct = round(value * n)
    _require(0 <= correct <= n and correct / n == value, f"{where}: {value!r} is not c/{n}")


def check_robustness(path, modality_count: int, n_test: int) -> dict:
    header, rows = read_rows(path)
    _require(header == ["pathway", "accuracy"], f"{path}: header {header}")
    names = ["complete"] + [f"modality_{m}" for m in range(1, modality_count + 1)]
    _require([r[0] for r in rows] == names, f"{path}: pathways {[r[0] for r in rows]}")
    table = {r[0]: float(r[1]) for r in rows}
    for name, value in table.items():
        check_accuracy(value, n_test, f"{path}:{name}")
    return table


def check_sweep(out_dir, dataset: Dataset, grid: dict, k: int = 5) -> None:
    """Each grid point's trace, accuracies and harmonics, and the aggregate
    built from them. Harmonics are recomputed from this module's own
    embeddings of the point's checkpoint."""
    out = Path(out_dir)
    m_count = len(dataset.modalities)
    n_test = int((~dataset.is_train).sum())
    header, rows = read_rows(out / "aggregate.csv")
    labels = header[2:]
    runs = sorted(p for p in out.iterdir() if p.is_dir())
    _require(len(runs) == len(labels), f"{out}: {len(runs)} run dirs for {len(labels)} columns")
    per_point = []
    for i, (run, label) in enumerate(zip(runs, labels)):
        _require(run.name == f"run_{i:03d}_{label}", f"{run}: does not match column {label}")
        check_loss_trace(run / "loss_trace.csv", grid["epochs"], m_count, grid["batch_size"])
        acc = check_robustness(run / "robustness.csv", m_count, n_test)
        dca_header, dca_rows = read_rows(run / "dca.csv")
        _require(dca_header == ["pathway", "harmonic"], f"{run}/dca.csv: header")
        harmonics = {r[0]: float(r[1]) for r in dca_rows}
        ckpt = check_checkpoint(run / "checkpoint.gmc", dataset)
        z_c = ckpt.embed("complete", dataset.view("complete", "test"))
        for m in range(1, m_count + 1):
            z_m = ckpt.embed(m, dataset.view(m, "test"))
            exact = float(alignment_of(z_c, z_m, k)["harmonic"])
            got = harmonics.get(f"modality_{m}")
            _require(
                got is not None and _close(got, exact, SCORE_RTOL),
                f"{run}/dca.csv: modality_{m} harmonic {got!r}, exact {exact!r}",
            )
        check_manifest(run)
        per_point.append((acc, harmonics))
    expected_rows = [
        ["probe_accuracy", name] for name in ["complete"] + [f"modality_{m}" for m in range(1, m_count + 1)]
    ] + [["dca_harmonic", f"modality_{m}"] for m in range(1, m_count + 1)]
    _require([r[:2] for r in rows] == expected_rows, f"{out}/aggregate.csv: row labels")
    for row in rows:
        metric, pathway, cells = row[0], row[1], row[2:]
        for (acc, harmonics), cell in zip(per_point, cells):
            source = acc if metric == "probe_accuracy" else harmonics
            _require(
                float(cell) == source[pathway],
                f"{out}/aggregate.csv: {metric} {pathway} cell {cell} != point file",
            )
    check_manifest(out)
