#!/usr/bin/env python3
"""Benchmark of the gmc CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: every command is the checkout's
own ``gmc`` (``python3 -m gmc.cli`` with ``src`` on ``PYTHONPATH``). The set-up
makes the inputs with ``gmc gen-data --seed N``; then whole rounds of the
workload's commands run until S seconds have passed, each command followed
by checks of its outputs against independent recomputations
(``perfbench/checks.py``). With ``--trace 1`` an untraced round is followed by
traced rounds (``perfbench/tracer.py``) whose artifacts must match it byte for
byte, and the per-layer metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See perfbench/README.md.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread everywhere: in every gmc process and in the checks here.
THREAD_VARS = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "BLIS_NUM_THREADS",
    )
}
os.environ.update(THREAD_VARS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"
DEADLINE_S = 170.0  # every run ends well inside 180 s
NPROC = len(os.sched_getaffinity(0))

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
from checks import CheckError, Dataset  # noqa: E402

DATA = "../../setup/data"  # the data set as a round sees it
BATCH = 64  # TrainConfig and ProbeConfig default batch size
TRAIN_FRACTION = 0.8  # SynthConfig default
DEFAULT_PROBE_EPOCHS = 50  # ProbeConfig default


class Op:
    """One gmc command in a round and the check of its outputs.

    ``samples`` is the number of training samples the command steps, for
    train_samples_per_s; ``check(round_dir, dataset)`` raises on bad output."""

    def __init__(self, kind, args, check, samples=0):
        self.kind, self.args, self.check, self.samples = kind, args, check, samples


def _encode(ckpt, pathway, out):
    def check(rd, ds):
        checks.check_embeddings(rd / out, checks.Checkpoint(rd / ckpt), ds, pathway, "test")

    args = ["encode", "--checkpoint", ckpt, "--dataset", DATA, "--pathway", str(pathway)]
    return Op("encode", args + ["--split", "test", "--out", out], check)


def _eval_dca(m):
    ref, ev, out = "enc_complete/embeddings.csv", f"enc_{m}/embeddings.csv", f"dca_{m}"

    def check(rd, ds):
        checks.check_dca_report(rd / out, rd / ref, rd / ev)

    return Op("eval_dca", ["eval-dca", "--reference", ref, "--evaluation", ev, "--out", out], check)


def _eval_probe(ckpt, probe_epochs, samples):
    """eval-probe with the workload's probe.json, or the default ProbeConfig
    when the workload writes none."""

    def check(rd, ds):
        checks.check_robustness(rd / "probe/robustness.csv", len(ds.modalities), int((~ds.is_train).sum()))
        checks.check_manifest(rd / "probe")

    args = ["eval-probe", "--checkpoint", ckpt, "--dataset", DATA, "--out", "probe"]
    if probe_epochs != DEFAULT_PROBE_EPOCHS:
        args += ["--config", "../../setup/probe.json"]
    return Op("eval_probe", args, check, samples=samples)


def _inspect(ckpt, modalities, probe_epochs, probe_samples=0):
    """encode the test split through the complete pathway, then for each
    listed modality encode it and score it against the complete cloud;
    finally train and test the probe. probe_samples counts the probe's
    training towards train_samples_per_s."""
    ops = [_encode(ckpt, "complete", "enc_complete")]
    for m in modalities:
        ops += [_encode(ckpt, m, f"enc_{m}"), _eval_dca(m)]
    ops.append(_eval_probe(ckpt, probe_epochs, probe_samples))
    return ops


def _train_steps(n, epochs):
    """Contrastive steps: a trailing batch of fewer than 2 samples is dropped."""
    return epochs * (n // BATCH + (1 if n % BATCH >= 2 else 0))


def _probe_steps(n, epochs):
    return epochs * -(-n // BATCH)


class Workload:
    name = ""
    synth: dict = {}  # gen-data config; the seed comes from --seed
    probe_epochs = 5  # of the probe in eval-probe; 50 runs the default ProbeConfig

    @property
    def n_samples(self) -> int:
        return self.synth.get("n_samples", 2000)  # SynthConfig default

    @property
    def n_train(self) -> int:
        return int(self.n_samples * TRAIN_FRACTION)

    def configs(self) -> dict:
        configs = {"synth.json": self.synth}
        if self.probe_epochs != DEFAULT_PROBE_EPOCHS:
            configs["probe.json"] = {"epochs": self.probe_epochs}
        return configs

    def setup(self, h, where: Path, seed: int, trace_dir=None) -> None:
        h.gmc(where, ["gen-data", "--config", "synth.json", "--seed", str(seed), "--out", "data"], trace_dir)

    def check_setup(self, where: Path, ds: Dataset) -> None:
        checks.check_manifest(where / "data")

    def ops(self) -> list:
        raise NotImplementedError

    def expected(self) -> dict:
        """Per-round counts the traced run must reproduce exactly."""
        raise NotImplementedError


class TrainDefault(Workload):
    name = "train_default"
    epochs = 5

    def configs(self):
        return dict(super().configs(), **{"train.json": {"epochs": self.epochs}})

    def ops(self):
        def check(rd, ds):
            checks.check_loss_trace(rd / "train/loss_trace.csv", self.epochs, len(ds.modalities), BATCH)
            checks.check_checkpoint(rd / "train/checkpoint.gmc", ds)
            checks.check_manifest(rd / "train")

        train = ["train", "--config", "../../setup/train.json", "--dataset", DATA, "--out", "train"]
        return [Op("train", train, check, samples=self.epochs * self.n_train)] + _inspect(
            "train/checkpoint.gmc", [1], self.probe_epochs
        )

    def expected(self):
        return {
            "model.steps": _train_steps(self.n_train, self.epochs),
            "downstream.probe_steps": _probe_steps(self.n_train, self.probe_epochs),
            "dca.points": 2 * (self.n_samples - self.n_train),
            "cli.sweep_points": 0,
        }


class EvalLarge(Workload):
    name = "eval_large"
    synth = {"n_samples": 10000}
    checkpoint_epochs = 1
    probe_epochs = DEFAULT_PROBE_EPOCHS
    ckpt = "../../setup/ckpt/checkpoint.gmc"

    def configs(self):
        return dict(super().configs(), **{"ckpt.json": {"epochs": self.checkpoint_epochs}})

    def setup(self, h, where, seed, trace_dir=None):
        super().setup(h, where, seed, trace_dir)
        h.gmc(where, ["train", "--config", "ckpt.json", "--dataset", "data", "--out", "ckpt"], trace_dir)

    def check_setup(self, where, ds):
        super().check_setup(where, ds)
        checks.check_loss_trace(where / "ckpt/loss_trace.csv", self.checkpoint_epochs, len(ds.modalities), BATCH)
        checks.check_checkpoint(where / "ckpt/checkpoint.gmc", ds)
        checks.check_manifest(where / "ckpt")

    def ops(self):
        # no contrastive training here: the probe is the training throughput
        return _inspect(self.ckpt, [1, 2, 3], self.probe_epochs, self.probe_epochs * self.n_train)

    def expected(self):
        n_test = self.n_samples - self.n_train
        return {
            "model.steps": 0,
            "downstream.probe_steps": _probe_steps(self.n_train, self.probe_epochs),
            "dca.points": 3 * 2 * n_test,
            "cli.sweep_points": 0,
        }


class SweepGrid(Workload):
    name = "sweep_grid"
    grid = {"epochs": 2, "tau": [0.1, 0.5], "loss_variant": ["full", "ablated"]}
    points = 4
    first_point = "sweep/run_000_tau0.1_loss_variantfull/checkpoint.gmc"
    point_probe_epochs = DEFAULT_PROBE_EPOCHS  # the sweep probes every point with ProbeConfig()

    def configs(self):
        return dict(super().configs(), **{"grid.json": self.grid})

    def ops(self):
        def check(rd, ds):
            checks.check_sweep(rd / "sweep", ds, {"epochs": self.grid["epochs"], "batch_size": BATCH})

        sweep = ["sweep", "--config", "../../setup/grid.json", "--dataset", DATA, "--out", "sweep"]
        samples = self.points * self.grid["epochs"] * self.n_train
        return [Op("sweep", sweep, check, samples=samples)] + _inspect(
            self.first_point, [1, 2, 3], self.probe_epochs
        )

    def expected(self):
        n_test = self.n_samples - self.n_train
        return {
            "model.steps": self.points * _train_steps(self.n_train, self.grid["epochs"]),
            "downstream.probe_steps": self.points * _probe_steps(self.n_train, self.point_probe_epochs)
            + _probe_steps(self.n_train, self.probe_epochs),
            "dca.points": (self.points * 3 + 3) * 2 * n_test,
            "cli.sweep_points": self.points,
        }


WORKLOADS = {w.name: w for w in (TrainDefault(), EvalLarge(), SweepGrid())}


# --- running commands --------------------------------------------------------------


class Result:
    def __init__(self, returncode, wall, cpu, rss_mb, log):
        self.returncode, self.wall, self.cpu, self.rss_mb, self.log = returncode, wall, cpu, rss_mb, log


class Harness:
    """Runs gmc commands one at a time and measures each process tree."""

    def __init__(self, run_dir: Path):
        self.logs = run_dir / "logs"
        self.logs.mkdir(parents=True)
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), GMC_THREADS=str(NPROC), **THREAD_VARS)

    def gmc(self, cwd: Path, args, trace_dir=None, must_pass=True) -> Result:
        """Run one command with cwd as working directory. With trace_dir, run
        it under the tracer, which writes its spans into trace_dir."""
        self.count += 1
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(trace_dir / f"{self.count:04d}.json")]
        else:
            cmd = [sys.executable, "-m", "gmc.cli"]
        log = self.logs / f"{self.count:04d}-{args[0]}.log"
        remaining = STARTED + DEADLINE_S - time.perf_counter()
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd + list(args),
                cwd=cwd,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=subprocess.STDOUT,
                start_new_session=True,  # so a timeout can stop the sweep's workers too
            )
            timer = threading.Timer(max(remaining, 0.1), _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # wait4 folds in every child the command reaped, so the sweep's pool
        # workers count towards cpu and peak RSS.
        result = Result(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, log)
        if result.returncode != 0 and must_pass:
            raise SetupFailed(f"`gmc {' '.join(args)}` exited {result.returncode}: {_tail(log)}")
        return result


class SetupFailed(Exception):
    pass


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _tail(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


def prepare(h: Harness, workload: Workload, where: Path, seed: int, trace_dir=None) -> None:
    where.mkdir(parents=True)
    for name, config in workload.configs().items():
        (where / name).write_text(json.dumps(config), encoding="utf-8")
    workload.setup(h, where, seed, trace_dir)


class Round:
    def __init__(self):
        self.ops: list = []  # (op, result)
        self.attempted = self.failed = 0
        self.wrong: list[str] = []

    def total(self, attr, kind=None):
        return sum(getattr(r, attr) for op, r in self.ops if kind is None or op.kind == kind)


def run_round(h, workload, rd: Path, ds: Dataset, check: bool, trace_dir=None) -> Round:
    rd.mkdir(parents=True)
    rnd = Round()
    for op in workload.ops():
        result = h.gmc(rd, op.args, trace_dir, must_pass=False)
        rnd.ops.append((op, result))
        rnd.attempted += 1
        if result.returncode != 0:
            rnd.failed += 1
            print(f"failed: gmc {' '.join(op.args)}: {_tail(result.log)}", file=sys.stderr)
            continue
        if check:
            try:
                op.check(rd, ds)
            except Exception as err:  # any malformed artifact is a wrong answer
                rnd.failed += 1
                rnd.wrong.append(f"gmc {op.args[0]} in {rd.name}: {type(err).__name__}: {err}")
    return rnd


def tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def differences(a: Path, b: Path) -> list[str]:
    ta, tb = tree(a), tree(b)
    names = sorted(set(ta) | set(tb))
    return [f"{b.name}/{n} differs from {a.name}/{n}" for n in names if ta.get(n) != tb.get(n)]


def end_to_end(rounds: list, setup_s: float) -> dict:
    """Per-round figures are means over all of the run's rounds, which are the
    same commands: the machine's speed drifts over tens of seconds, and a mean
    over the whole run averages that drift where a median of a few rounds, or
    one short command per round, samples it."""

    def per_round(f):
        return statistics.fmean([f(r) for r in rounds])

    trainers = [(op, res) for r in rounds for op, res in r.ops if op.samples]
    return {
        "setup_s": setup_s,
        "wall_s": per_round(lambda r: r.total("wall")),
        "cpu_s": per_round(lambda r: r.total("cpu")),
        "peak_rss_mb": statistics.median([max(res.rss_mb for _, res in r.ops) for r in rounds]),
        "train_samples_per_s": sum(op.samples for op, _ in trainers) / sum(res.wall for _, res in trainers),
        "encode_s": per_round(lambda r: r.total("wall", "encode")),
        "eval_dca_s": per_round(lambda r: r.total("wall", "eval_dca")),
        "eval_probe_s": per_round(lambda r: r.total("wall", "eval_probe")),
    }


def _mean(values):
    """Counts stay whole numbers when every traced round agrees on them."""
    if all(isinstance(v, int) for v in values) and len(set(values)) == 1:
        return values[0]
    return statistics.fmean(values)


def per_layer(run_dir, traced: list, untraced_wall: float, workload, wrong: list) -> dict:
    from layers import layer_metrics, load_traces

    rounds = []
    for rnd, trace_dir in traced:
        metrics, facts = layer_metrics(load_traces(trace_dir))
        for loop, nodes in facts["nodes_per_loop"]:
            if len(nodes) != 1:
                wrong.append(f"{trace_dir.name}: {loop} recorded {nodes} tape nodes on full-size steps")
        for name, want in workload.expected().items():
            if metrics[name] != want:
                wrong.append(f"{trace_dir.name}: {name} is {metrics[name]}, expected {want}")
        if facts["unwrapped"]:
            print(f"warning: not found in gmc, not traced: {facts['unwrapped']}", file=sys.stderr)
        rounds.append(metrics)
    out = {name: _mean([m[name] for m in rounds]) for name in rounds[0]}
    setup_metrics, _ = layer_metrics(load_traces(run_dir / "trace" / "setup"))
    out["synthdata.generate_s"] = setup_metrics["synthdata.generate_s"]
    out["trace.overhead_s"] = statistics.median([rnd.total("wall") for rnd, _ in traced]) - untraced_wall
    return out


def run(workload: Workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> tuple:
    h = Harness(run_dir)
    setup = run_dir / "setup"
    prepare(h, workload, setup, seed)
    setup_s = time.perf_counter() - STARTED
    ds = Dataset(setup / "data")
    workload.check_setup(setup, ds)
    wrong: list[str] = []
    if trace:
        prepare(h, workload, run_dir / "setup_traced", seed, run_dir / "trace" / "setup")
        wrong += differences(setup, run_dir / "setup_traced")

    rounds, traced = [], []
    began = time.perf_counter()
    while True:
        start = time.perf_counter()
        index = len(rounds) + len(traced)
        rd = run_dir / "rounds" / f"r{index:03d}"
        if trace and rounds:
            trace_dir = run_dir / "trace" / rd.name
            rnd = run_round(h, workload, rd, ds, check=False, trace_dir=trace_dir)
            wrong += differences(run_dir / "rounds" / "r000", rd)
            traced.append((rnd, trace_dir))
        else:
            rnd = run_round(h, workload, rd, ds, check=True)
            rounds.append(rnd)
        wrong += rnd.wrong
        now = time.perf_counter()
        if trace and not traced:
            began = now  # traced rounds get the whole measuring time
            continue
        # Another round only if it should end within the measuring time.
        if now + (now - start) - began > seconds or now + (now - start) > STARTED + DEADLINE_S - 5:
            break

    every = rounds + [rnd for rnd, _ in traced]
    timings = [[[op.args[0], res.wall, res.cpu] for op, res in r.ops] for r in every]
    (run_dir / "timings.json").write_text(json.dumps({"setup_s": setup_s, "rounds": timings}), encoding="utf-8")
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    if trace:
        metrics = per_layer(run_dir, traced, rounds[0].total("wall"), workload, wrong)
    else:
        metrics = end_to_end(rounds, setup_s)
    return metrics, attempted, failed, wrong


def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gmc" / "cli.py").is_file():
        print(f"error: no gmc sources under {ROOT / 'src'}; run from a gmc checkout", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))

    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        metrics, attempted, failed, wrong = run(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), run_dir
        )
    except (SetupFailed, CheckError, OSError, ValueError, KeyError) as err:
        print(f"error: set-up failed: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    for line in wrong:
        print(f"wrong: {line}", file=sys.stderr)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: BENCHMARK.json declares metrics this run has no value for: {missing}", file=sys.stderr)
        return 1
    if not wrong:
        # keep the traces, drop the bulky artifacts; a wrong run keeps all
        for sub in ("setup", "setup_traced", "rounds"):
            shutil.rmtree(run_dir / sub, ignore_errors=True)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
