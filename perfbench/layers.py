"""Per-layer metrics from the trace files that perfbench/tracer.py writes.

Every figure covers one traced round. Self and phase times are derived from
the span tree: a phase counts towards ``model.*`` only when its nearest
enclosing training loop is ``model.train``, and towards the probe when it is
``downstream.train_probe``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from tracer import PRIMITIVES

TRAIN = "model.train"
PROBE = "downstream.train_probe"
LOOPS = (TRAIN, PROBE)
BACKWARD = "tensor.Tape.backward"
REPLACE = ("model.GmcModel.replace_parameters", "downstream.ProbeClassifier.replace_parameters")
ENCODES = ("model.GmcModel.encode_pathway", "model.GmcModel.encode_complete", "model.GmcModel.encode_modality")
LOSSES = ("loss.mnt_xent", "loss.mnt_xent_ablated")


class Trace:
    """The spans and tallies of one trace file."""

    def __init__(self, doc: dict):
        self.pid = doc["pid"]
        self.spans = doc["spans"]
        self.tallies = doc["tallies"]
        self.unwrapped = doc.get("unwrapped", [])

    def enclosing(self, index: int, names) -> int:
        """Index of the nearest ancestor whose name is in names, or -1."""
        parent = self.spans[index][3]
        while parent >= 0 and self.spans[parent][0] not in names:
            parent = self.spans[parent][3]
        return parent


def load_traces(trace_dir) -> list[Trace]:
    return [Trace(json.loads(p.read_text(encoding="utf-8"))) for p in sorted(Path(trace_dir).glob("*.json"))]


def layer_metrics(traces: list[Trace]) -> tuple[dict, dict]:
    """(metrics, facts): metric values for one round, and the raw counts the
    benchmark checks against its expectations."""
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    attrs: dict[str, int] = {}
    phase = {"encode": 0.0, "loss": 0.0, "backward": 0.0, "optimizer": 0.0, "loop": 0.0}
    steps = {TRAIN: 0, PROBE: 0}
    nodes_by_loop: dict[tuple, list[int]] = {}  # (file, loop span, loop name) -> nodes per step
    encode_pathway_s = 0.0
    point_s: list[float] = []
    point_pids = set()
    unwrapped = set()

    for t, trace in enumerate(traces):
        unwrapped.update(trace.unwrapped)
        last_backward_end: dict[int, float] = {}
        for i, (name, start, end, parent, extra) in enumerate(trace.spans):
            took = end - start
            sums[name] = sums.get(name, 0.0) + took
            counts[name] = counts.get(name, 0) + 1
            for key, value in (extra or {}).items():
                attrs[key] = attrs.get(key, 0) + value
            if name == "cli.run_sweep_point":
                point_s.append(took)
                point_pids.add(trace.pid)
            if name in ENCODES and trace.enclosing(i, ENCODES + (TRAIN,)) < 0:
                encode_pathway_s += took
            loop = trace.enclosing(i, LOOPS)
            in_train = loop >= 0 and trace.spans[loop][0] == TRAIN
            if name == BACKWARD and loop >= 0:
                steps[trace.spans[loop][0]] += 1
                nodes_by_loop.setdefault((t, loop, trace.spans[loop][0]), []).append(extra["nodes"])
                last_backward_end[loop] = end
                if in_train:
                    phase["backward"] += took
            elif name in REPLACE and loop in last_backward_end:
                began = last_backward_end.pop(loop)
                if in_train:
                    phase["optimizer"] += end - began
            elif in_train and name == "model.encode_batch":
                phase["encode"] += took
            elif in_train and name in LOSSES:
                phase["loss"] += took
            elif name == TRAIN:
                phase["loop"] += took

    def total(*names):
        return sum(sums.get(n, 0.0) for n in names)

    def calls(*names):
        return sum(counts.get(n, 0) for n in names)

    train_nodes = [n for key, v in nodes_by_loop.items() if key[2] == TRAIN for n in v]
    probe_nodes = [n for key, v in nodes_by_loop.items() if key[2] == PROBE for n in v]
    metrics = {
        "tensor.nodes_per_step": statistics.median_low(train_nodes or probe_nodes or [0]),
        "tensor.backward_s": total(BACKWARD),
        "tensor.backward_calls": calls(BACKWARD),
    }
    for op in PRIMITIVES:
        op_calls, op_seconds = 0, 0.0
        for trace in traces:
            c, s = trace.tallies.get(op, (0, 0.0))
            op_calls += c
            op_seconds += s
        metrics[f"tensor.{op}.calls"] = op_calls
        metrics[f"tensor.{op}.fwd_s"] = op_seconds
    metrics.update(
        {
            "loss.forward_s": total(*LOSSES),
            "loss.calls": calls(*LOSSES),
            "model.steps": steps[TRAIN],
            "model.encode_s": phase["encode"],
            "model.optimizer_s": phase["optimizer"],
            "model.step_self_s": phase["loop"]
            - phase["encode"] - phase["loss"] - phase["backward"] - phase["optimizer"],
            "model.encode_pathway_s": encode_pathway_s,
            "dca.build_graph_s": total("dca.build_graph"),
            "dca.score_s": total("dca.score_labeled_graph"),
            "dca.points": attrs.get("points", 0),
            "dca.edges": attrs.get("edges", 0),
            "downstream.train_probe_s": total(PROBE),
            "downstream.probe_steps": steps[PROBE],
            "downstream.evaluate_robustness_s": total("downstream.evaluate_robustness"),
            "persist.read_csv_s": total("persist.read_matrix_csv"),
            "persist.write_csv_s": total("persist.write_csv"),
            "persist.checkpoint_s": total("persist.save_checkpoint", "persist.load_checkpoint"),
            "persist.hash_s": total("persist.sha256_file"),
            "persist.bytes_read": attrs.get("bytes_read", 0),
            "persist.bytes_written": attrs.get("bytes_written", 0),
            "synthdata.generate_s": total("synthdata.generate"),
            "cli.sweep_points": len(point_s),
            "cli.sweep_workers": len(point_pids),
            "cli.sweep_point_s": statistics.fmean(point_s) if point_s else 0.0,
        }
    )
    facts = {
        "nodes_per_loop": [(key[2], sorted(set(v))) for key, v in nodes_by_loop.items()],
        "unwrapped": sorted(unwrapped),
    }
    return metrics, facts

