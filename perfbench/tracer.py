"""Run one gmc CLI command with per-layer tracing.

    python3 perfbench/tracer.py TRACE_FILE <gmc arguments...>

Wraps the public functions of each ``gmc`` module where the program looks
them up: every module global bound to a wrapped function is rebound, which
covers names imported into ``model``, ``downstream`` and ``cli``, and so is
every entry of a module-level dict of functions (``model._ACTIVATIONS``,
``tensor._PRIMITIVES``). Methods are wrapped on their class. Objects the
program checks by type (the optimizer ``train()`` tests with ``isinstance``)
are never wrapped or replaced; the optimizer phase is timed from the end of
``Tape.backward`` to the end of ``replace_parameters`` instead.

Spans and tallies stay in memory and are written as JSON to TRACE_FILE when
the command ends. A sweep grid point writes its own subtree to
``TRACE_FILE.point-<pid>-<n>.json`` as soon as it finishes, so points run in
forked pool workers are traced too (workers inherit the wrapped modules).
The exit code is the command's.
"""

from __future__ import annotations

import json
import os
import sys
import time

clock = time.perf_counter

# Coarse layer boundaries: one span per call.
SPAN_FUNCTIONS = {
    "cli": ("cmd_gen_data", "cmd_train", "cmd_encode", "cmd_eval_dca", "cmd_eval_probe", "cmd_sweep"),
    "synthdata": ("generate",),
    "persist": (
        "load_dataset",
        "save_dataset",
        "read_matrix_csv",
        "write_csv",
        "save_checkpoint",
        "load_checkpoint",
        "sha256_file",
        "write_manifest",
    ),
    "model": ("train", "encode_batch"),
    "loss": ("mnt_xent", "mnt_xent_ablated"),
    "downstream": ("train_probe", "evaluate_robustness"),
    "dca": ("evaluate_alignment", "build_graph", "score_labeled_graph"),
}
SPAN_METHODS = {
    "tensor": {"Tape": ("backward",)},
    "model": {"GmcModel": ("encode_pathway", "encode_complete", "encode_modality", "replace_parameters")},
    "downstream": {"ProbeClassifier": ("replace_parameters",)},
}
# Tape primitives: called ~1,600 times per training step, so they are tallied
# (calls and seconds) instead of kept as spans.
PRIMITIVES = (
    "matmul", "add", "scale", "relu", "swish", "exp", "log",
    "sum", "mean", "concat", "slice", "l2_norm", "dot",
)


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Attributes recorded on a span, from the call's arguments before it runs
# or from its arguments and result after it returns.
BEFORE = {
    "tensor.Tape.backward": lambda args: {"nodes": len(args[0])},
    "persist.read_matrix_csv": lambda args: {"bytes_read": _size(args[0])},
    "persist.load_checkpoint": lambda args: {"bytes_read": _size(args[0])},
    "persist.sha256_file": lambda args: {"bytes_read": _size(args[0])},
}
AFTER = {
    "persist.write_csv": lambda args, result: {"bytes_written": _size(args[0])},
    "persist.save_checkpoint": lambda args, result: {"bytes_written": _size(args[0])},
    "persist.write_manifest": lambda args, result: {"bytes_written": _size(args[0])},
    "dca.build_graph": lambda args, result: {"points": args[0].n_points, "edges": result.n_edges},
}


class Tracer:
    """In-memory spans ``[name, start, end, parent, attrs]`` and tallies
    ``name -> [calls, seconds]``."""

    def __init__(self, trace_file: str):
        self.trace_file = trace_file
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.tallies: dict[str, list] = {name: [0, 0.0] for name in PRIMITIVES}
        self.unwrapped: list[str] = []
        self._points_written = 0

    def span(self, name: str, fn):
        before, after = BEFORE.get(name), AFTER.get(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            attrs = before(args) if before else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after:
                record[4] = after(args, result)
            return result

        return traced

    def tally(self, name: str, fn):
        slot = self.tallies[name]

        def tallied(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[1] += clock() - start
                slot[0] += 1

        return tallied

    def sweep_point(self, fn):
        """Span around cli.run_sweep_point that writes the point's subtree to
        its own file and drops it from memory, whichever process ran it."""
        traced = self.span("cli.run_sweep_point", fn)

        def point(*args, **kwargs):
            first = len(self.spans)
            tallies_before = {k: list(v) for k, v in self.tallies.items()}
            try:
                return traced(*args, **kwargs)
            finally:
                subtree = [
                    [name, start, end, parent - first if parent >= first else -1, attrs]
                    for name, start, end, parent, attrs in self.spans[first:]
                ]
                delta = {}
                for k, v in self.tallies.items():
                    delta[k] = [v[0] - tallies_before[k][0], v[1] - tallies_before[k][1]]
                    v[0], v[1] = tallies_before[k]
                del self.spans[first:]
                self._points_written += 1
                self._write(
                    f"{self.trace_file}.point-{os.getpid()}-{self._points_written}.json",
                    subtree,
                    delta,
                )

        return point

    def install(self) -> None:
        """Wrap every traced function and rebind it wherever gmc looks it up."""
        import importlib

        names = ("tensor", "loss", "synthdata", "model", "downstream", "dca", "persist", "cli")
        modules = {n: importlib.import_module(f"gmc.{n}") for n in names}
        replacements = {}  # id(original) -> (original, wrapper)

        def plan(module_name, attr, make):
            original = getattr(modules[module_name], attr, None)
            if original is None:
                self.unwrapped.append(f"{module_name}.{attr}")
                return
            replacements[id(original)] = (original, make(original))

        for module_name, attrs in SPAN_FUNCTIONS.items():
            for attr in attrs:
                plan(module_name, attr, lambda fn, n=f"{module_name}.{attr}": self.span(n, fn))
        for attr in PRIMITIVES:
            plan("tensor", attr, lambda fn, n=attr: self.tally(n, fn))
        plan("cli", "run_sweep_point", self.sweep_point)

        for module in modules.values():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        hit = replacements.get(id(v))
                        if hit is not None and hit[0] is v:
                            value[k] = hit[1]

        for module_name, classes in SPAN_METHODS.items():
            for class_name, methods in classes.items():
                cls = getattr(modules[module_name], class_name, None)
                for method in methods:
                    original = getattr(cls, method, None) if cls is not None else None
                    if original is None:
                        self.unwrapped.append(f"{module_name}.{class_name}.{method}")
                        continue
                    setattr(cls, method, self.span(f"{module_name}.{class_name}.{method}", original))

    def _write(self, path: str, spans, tallies) -> None:
        doc = {"pid": os.getpid(), "spans": spans, "tallies": tallies, "unwrapped": self.unwrapped}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def write(self) -> None:
        self._write(self.trace_file, self.spans, self.tallies)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE_FILE <gmc arguments...>", file=sys.stderr)
        return 2
    trace_file, gmc_args = argv[0], argv[1:]
    from gmc import cli

    tracer = Tracer(trace_file)
    tracer.install()
    try:
        return cli.main(gmc_args)
    finally:
        tracer.write()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
