"""Operator surface: gen-data, train, encode, eval-dca, eval-probe, sweep.

Every command writes its artifacts plus a manifest.json into --out; the
manifest pins the resolved config and the content hash of each input and
output file, and carries no timestamps, so re-running a command with the
same inputs reproduces identical bytes. Configs are strict JSON objects:
an unknown key is rejected by its path, a repeated one by its name.

Exit codes: 0 success, 2 config error, 3 data or format error, 4 numeric
failure (non-finite loss or a degenerate embedding).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .dca import DcaReport, evaluate_alignment
from .downstream import ProbeConfig, evaluate_robustness, train_probe
from .errors import ConfigError, ContractError, DataError, DomainError, NumericError, ShapeError
from .model import GmcModel, ModelConfig, TrainConfig, train
from .persist import (
    hash_entry,
    load_checkpoint,
    load_dataset,
    modality_filename,
    read_matrix_csv,
    save_checkpoint,
    save_dataset,
    write_csv,
    write_json,
    write_manifest,
)
from .synthdata import SynthConfig, generate

# sweep axes, in the order grid points are enumerated
_SWEEP_TOP_AXES = ("tau", "loss_variant")
_SWEEP_MODEL_AXES = ("d", "s")


# --- config plumbing --------------------------------------------------------------


def _load_json_config(path) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(str(path), f"cannot read config file: {err}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(str(path), f"not UTF-8 text: {err}") from err

    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(key, f"repeated in {path}")
            obj[key] = value
        return obj

    try:
        obj = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as err:
        raise ConfigError(str(path), f"not valid JSON: {err}") from err
    if not isinstance(obj, dict):
        raise ConfigError(str(path), "top-level JSON value must be an object")
    return obj


def _resolve(cls, raw, where: str, prefix: str = "", **overrides):
    """The config dataclass `cls` from the JSON object `raw`.

    A key that is not a field of `cls` is rejected, and an override that is
    not None replaces the raw value. Every error names its key as `prefix`
    followed by the field; one raised outside the field checks names `where`.
    """
    names = {f.name for f in dataclasses.fields(cls)}
    for key in raw:
        if key not in names:
            raise ConfigError(f"{prefix}{key}", "unknown config key")
    # JSON arrays become tuples so they can feed frozen dataclasses
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}
    kwargs.update((k, v) for k, v in overrides.items() if v is not None)
    try:
        return cls(**kwargs)
    except ConfigError as err:
        raise ConfigError(f"{prefix}{err.key}", err.message) from None
    except (TypeError, ValueError) as err:
        raise ConfigError(where, str(err)) from err


def resolve_train_config(raw: dict, seed: int | None, loss: str | None) -> tuple[TrainConfig, ModelConfig]:
    """A train config's TrainConfig and the ModelConfig of its optional
    "model" section, whose seed defaults to the training seed so one --seed
    reseeds the whole run."""
    raw = dict(raw)
    model_raw = raw.pop("model", {})
    config = _resolve(TrainConfig, raw, "train config", seed=seed, loss_variant=loss)
    if not isinstance(model_raw, dict):
        raise ConfigError("model", "must be a JSON object")
    return config, _resolve(ModelConfig, {"seed": config.seed, **model_raw}, "model", "model.")


def _dataset_input_hashes(dataset_dir, modality_count: int, digests: dict) -> dict:
    """Manifest entries of a dataset's CSVs, from the digests `load_dataset`
    recorded while it read them."""
    names = [modality_filename(m) for m in range(modality_count)] + ["labels.csv"]
    return {name: hash_entry(Path(dataset_dir) / name, digests) for name in names}


def _check_model_matches_dataset(model: GmcModel, dataset) -> None:
    dims = tuple(x.shape[1] for x in dataset.modalities)
    if model.modality_dims != dims:
        raise ContractError(
            f"checkpoint expects modality widths {model.modality_dims}, dataset has {dims}"
        )


# --- commands ---------------------------------------------------------------------


def cmd_gen_data(args) -> None:
    config = _resolve(SynthConfig, _load_json_config(args.config), "gen-data config", seed=args.seed)
    dataset = generate(config)
    out = Path(args.out)
    written = save_dataset(out, dataset)
    write_manifest(out / "manifest.json", "gen-data", dataclasses.asdict(config), inputs={}, outputs=written)
    print(f"wrote {len(written)} dataset files to {args.out}")


def _train_and_write(dataset, config: TrainConfig, model_config: ModelConfig, out: Path):
    """Build and train a model; write checkpoint.gmc and loss_trace.csv into
    `out`. Returns the model, the training result and what was written."""
    model = GmcModel.build(tuple(x.shape[1] for x in dataset.modalities), model_config)
    result = train(model, dataset, config)
    out.mkdir(parents=True, exist_ok=True)
    written = save_checkpoint(out / "checkpoint.gmc", model)
    written |= write_csv(
        out / "loss_trace.csv",
        ["epoch", "loss", "term_mean"],
        (
            (e, loss, mean)
            for e, (loss, mean) in enumerate(zip(result.epoch_losses, result.epoch_term_means))
        ),
    )
    return model, result, written


def cmd_train(args) -> None:
    config, model_config = resolve_train_config(_load_json_config(args.config), args.seed, args.loss)
    out = Path(args.out)
    digests = {}
    dataset = load_dataset(args.dataset, digests)
    model, result, written = _train_and_write(dataset, config, model_config, out)
    write_manifest(
        out / "manifest.json",
        "train",
        {"train": dataclasses.asdict(config), "model": dataclasses.asdict(model_config)},
        inputs={"dataset": _dataset_input_hashes(args.dataset, model.modality_count, digests)},
        outputs=written,
    )
    print(
        f"trained {config.epochs} epochs ({result.steps} steps); "
        f"loss {result.epoch_losses[0]:.6g} -> {result.epoch_losses[-1]:.6g}"
    )


def _parse_pathway(text: str, modality_count: int):
    if text == "complete":
        return "complete"
    try:
        m = int(text)
    except ValueError:
        m = 0
    if not 1 <= m <= modality_count:
        raise ConfigError(
            "--pathway", f"must be 'complete' or a modality index 1..{modality_count}, got {text!r}"
        )
    return m - 1


def cmd_encode(args) -> None:
    digests = {}
    model = load_checkpoint(args.checkpoint, digests)
    dataset = load_dataset(args.dataset, digests)
    _check_model_matches_dataset(model, dataset)
    pathway = _parse_pathway(args.pathway, model.modality_count)
    if pathway == "complete":
        x = dataset.complete_view(args.split)
    else:
        x = dataset.modality(pathway, args.split)
    z = model.encode_pathway(pathway, x)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = write_csv(out / "embeddings.csv", [f"z{j}" for j in range(z.shape[1])], z)
    write_manifest(
        out / "manifest.json",
        "encode",
        {"pathway": args.pathway, "split": args.split},
        inputs={
            "checkpoint": hash_entry(args.checkpoint, digests),
            "dataset": _dataset_input_hashes(args.dataset, model.modality_count, digests),
        },
        outputs=written,
    )
    print(f"encoded {z.shape[0]} samples ({args.split} split, pathway {args.pathway})")


def pca_2d(points: np.ndarray) -> np.ndarray:
    """Project onto the top-2 principal components, with a fixed sign
    convention (largest-magnitude loading positive) so output is stable."""
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:2]
    if comps.shape[0] < 2:
        comps = np.vstack([comps, np.zeros((2 - comps.shape[0], points.shape[1]))])
    for i in range(2):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return centered @ comps.T


def report_as_dict(report: DcaReport, k: int) -> dict:
    """The report's fields, each component's with its `fundamental` flag,
    and k; every value is already a JSON type."""
    out = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    out["components"] = [dict(vars(c), fundamental=c.fundamental) for c in report.components]
    out["k"] = k
    return out


def cmd_eval_dca(args) -> None:
    if args.k < 1:
        raise ConfigError("--k", f"must be at least 1, got {args.k}")
    digests = {}
    _, reference = read_matrix_csv(args.reference, digests)
    _, evaluation = read_matrix_csv(args.evaluation, digests)
    for path, points in ((args.reference, reference), (args.evaluation, evaluation)):
        if points.size == 0:
            raise DataError(f"embedding CSV holds no rows: {path}")
    if reference.shape[1] != evaluation.shape[1]:
        raise ContractError(
            f"reference {reference.shape} and evaluation {evaluation.shape} widths differ"
        )
    report = evaluate_alignment(reference, evaluation, k=args.k)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = write_json(out / "report.json", report_as_dict(report, args.k))
    origins = ["R"] * reference.shape[0] + ["E"] * evaluation.shape[0]
    written |= write_csv(
        out / "outliers.csv", ["vertex", "origin"], ((v, origins[v]) for v in report.outliers), "%d,%s"
    )
    proj = pca_2d(np.concatenate([reference, evaluation], axis=0))
    written |= write_csv(
        out / "pca2d.csv", ["origin", "pc1", "pc2"], zip(origins, *proj.T.tolist()), "%s,%.17g,%.17g"
    )
    write_manifest(
        out / "manifest.json",
        "eval-dca",
        {"k": args.k},
        inputs={
            "reference": hash_entry(args.reference, digests),
            "evaluation": hash_entry(args.evaluation, digests),
        },
        outputs=written,
    )
    print(
        f"harmonic {report.harmonic:.6g} "
        f"(precision {report.precision:.6g}, recall {report.recall:.6g}, "
        f"quality {report.network_quality:.6g}); {len(report.outliers)} outliers"
    )


def _probe_and_write(model: GmcModel, dataset, config: ProbeConfig, out: Path):
    """Train a probe on complete-pathway train latents, score every pathway
    on the test split and write robustness.csv into `out`. Returns the
    accuracy table and what was written."""
    z_train = model.encode_complete(dataset.complete_view("train"))
    probe = train_probe(z_train, dataset.labels_view("train"), config=config)
    table = evaluate_robustness(model, probe, dataset, split="test")
    out.mkdir(parents=True, exist_ok=True)
    return table, write_csv(out / "robustness.csv", ["pathway", "accuracy"], table.accuracies.items())


def cmd_eval_probe(args) -> None:
    config = _resolve(ProbeConfig, _load_json_config(args.config), "probe config", seed=args.seed)
    digests = {}
    model = load_checkpoint(args.checkpoint, digests)
    dataset = load_dataset(args.dataset, digests)
    _check_model_matches_dataset(model, dataset)
    out = Path(args.out)
    table, written = _probe_and_write(model, dataset, config, out)
    write_manifest(
        out / "manifest.json",
        "eval-probe",
        dataclasses.asdict(config),
        inputs={
            "checkpoint": hash_entry(args.checkpoint, digests),
            "dataset": _dataset_input_hashes(args.dataset, model.modality_count, digests),
        },
        outputs=written,
    )
    worst = table.worst_modality()
    print(f"probe accuracy: complete {table.complete:.4f}, worst modality {worst:.4f}")


# --- sweep -----------------------------------------------------------------------


def _sweep_axes(raw: dict) -> tuple[dict, list[tuple[str, list]]]:
    """Pull the list-valued hyperparameters out of a train config.

    Returns the config with those keys removed plus the (name, values) axes
    in a fixed enumeration order: tau, loss_variant, then model.d, model.s.
    """
    base = dict(raw)
    model_raw = base.get("model")
    if model_raw is not None and not isinstance(model_raw, dict):
        raise ConfigError("model", "must be a JSON object")
    axes = []
    for key in _SWEEP_TOP_AXES:
        if isinstance(base.get(key), list):
            values = base.pop(key)
            if not values:
                raise ConfigError(key, "sweep list must be nonempty")
            axes.append((key, values))
    if model_raw:
        base["model"] = dict(model_raw)
        for key in _SWEEP_MODEL_AXES:
            if isinstance(model_raw.get(key), list):
                values = base["model"].pop(key)
                if not values:
                    raise ConfigError(f"model.{key}", "sweep list must be nonempty")
                axes.append((f"model.{key}", values))
    return base, axes


def _grid_points(base: dict, axes: list[tuple[str, list]]) -> list[tuple[str, dict]]:
    """Materialize (label, raw train config) per grid point."""
    points = []
    value_lists = [values for _, values in axes]
    for combo in product(*value_lists) if axes else [()]:
        raw = json.loads(json.dumps(base))  # deep copy via JSON round trip
        parts = []
        for (name, _), value in zip(axes, combo):
            if name.startswith("model."):
                raw.setdefault("model", {})[name.split(".", 1)[1]] = value
            else:
                raw[name] = value
            parts.append(f"{name.split('.')[-1]}{value}")
        points.append(("_".join(parts) if parts else "default", raw))
    return points


def run_sweep_point(
    dataset, dataset_dir: str, digests: dict, run_dir: str, config: TrainConfig, model_config: ModelConfig
) -> dict:
    """Train one grid point and measure it: probe accuracies per pathway,
    the DCA harmonic of each (complete, modality) embedding pair and the
    record of the point's manifest. `dataset` is the sweep's parse of
    `dataset_dir`, and `digests` the sha256s that parse recorded."""
    out = Path(run_dir)
    model, _, written = _train_and_write(dataset, config, model_config, out)
    table, probed = _probe_and_write(model, dataset, ProbeConfig(seed=config.seed), out)
    written |= probed
    z_complete = model.encode_complete(dataset.complete_view("test"))
    harmonics = {}
    for m in range(model.modality_count):
        z_m = model.encode_modality(m, dataset.modality(m, "test"))
        harmonics[f"modality_{m + 1}"] = evaluate_alignment(z_complete, z_m, k=5).harmonic
    written |= write_csv(out / "dca.csv", ["pathway", "harmonic"], sorted(harmonics.items()))
    manifest = write_manifest(
        out / "manifest.json",
        "sweep-point",
        {"train": dataclasses.asdict(config), "model": dataclasses.asdict(model_config)},
        inputs={"dataset": _dataset_input_hashes(dataset_dir, model.modality_count, digests)},
        outputs=written,
    )
    return {
        "probe_accuracy": dict(table.accuracies),
        "dca_harmonic": harmonics,
        "manifest": manifest,
    }


def _sweep_job(payload):
    return run_sweep_point(*payload)


def _worker_count(n_jobs: int) -> int:
    raw = os.environ.get("GMC_THREADS", "").strip()
    if not raw:
        return min(n_jobs, os.cpu_count() or 1)
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigError("GMC_THREADS", f"must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ConfigError("GMC_THREADS", "must be >= 1")
    return min(n_jobs, cap)


def cmd_sweep(args) -> None:
    raw = _load_json_config(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    base, axes = _sweep_axes(raw)
    points = _grid_points(base, axes)
    # every point is resolved before any input is read
    configs = [resolve_train_config(raw_config, None, None) for _, raw_config in points]
    digests = {}
    dataset = load_dataset(args.dataset, digests)
    modality_count = len(dataset.modalities)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    jobs = [
        (dataset, args.dataset, digests, str(out / f"run_{i:03d}_{label}"), *configs[i])
        for i, (label, _) in enumerate(points)
    ]
    workers = _worker_count(len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a sweep pays its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_job, jobs))
    else:
        results = [_sweep_job(job) for job in jobs]

    labels = [label for label, _ in points]
    rows = []
    for pathway in ["complete"] + [f"modality_{m}" for m in range(1, modality_count + 1)]:
        rows.append(
            ("probe_accuracy", pathway, *(r["probe_accuracy"][pathway] for r in results))
        )
    for m in range(1, modality_count + 1):
        pathway = f"modality_{m}"
        rows.append(("dca_harmonic", pathway, *(r["dca_harmonic"][pathway] for r in results)))
    written = write_csv(out / "aggregate.csv", ["metric", "pathway", *labels], rows)
    for r in results:
        written |= r["manifest"]
    write_manifest(
        out / "manifest.json",
        "sweep",
        {"base": base, "axes": dict(axes)},
        inputs={"dataset": _dataset_input_hashes(args.dataset, modality_count, digests)},
        outputs=written,
    )
    print(f"swept {len(points)} grid points into {args.out}")


# --- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmc",
        description="Multimodal contrastive training and geometric alignment evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"gmc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic multimodal dataset directory")
    p.add_argument("--config", help="JSON config (SynthConfig schema)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--config", help="JSON config (TrainConfig schema plus a 'model' section)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--loss", choices=("full", "ablated"), help="override the loss variant")
    p.add_argument("--dataset", required=True, help="dataset directory from gen-data")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="embed a dataset split through one pathway")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--pathway", required=True, help="'complete' or a modality index 1..M")
    p.add_argument("--split", choices=("train", "test", "all"), default="all")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("eval-dca", help="score geometric alignment of two embedding files")
    p.add_argument("--reference", required=True, help="reference embeddings CSV")
    p.add_argument("--evaluation", required=True, help="evaluation embeddings CSV")
    p.add_argument("--k", type=int, default=5, help="neighbors per vertex (default 5)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_eval_dca)

    p = sub.add_parser("eval-probe", help="train a probe on complete-pathway latents and test every pathway")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", help="JSON config (ProbeConfig schema)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_eval_probe)

    p = sub.add_parser("sweep", help="train and evaluate a hyperparameter grid")
    p.add_argument(
        "--config",
        required=True,
        help="train config where tau, loss_variant, model.d, model.s may be lists",
    )
    p.add_argument("--seed", type=int, help="override the base seed")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        args.func(args)
        return 0
    except ConfigError as err:
        code, error = 2, err
    except (NumericError, DomainError) as err:
        code, error = 4, err
    except (DataError, ShapeError, ContractError, OSError) as err:
        code, error = 3, err
    except MemoryError as err:  # a well-formed but absurd width or class count
        code, error = 3, f"out of memory: {str(err) or 'allocation failed'}"
    print(f"error: {error}", file=sys.stderr)
    return code


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
