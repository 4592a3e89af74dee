"""reslat benchmark: closed-loop CLI runs and a traced in-process replay.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from `src/reslat`.

With `--trace 0` one client drives the public CLI as a closed loop: one
`reslat` process runs at a time and the next starts when it has exited. The
run repeats whole rounds of the workload's operations, each round in a new
seeded order, until `--seconds` have passed. Every output is checked against
the oracles in `workloads.py`. The end-to-end metrics come from this run.

With `--trace 1` the same operations run once in this process through
`reslat.cli.main`: first plain, then with a span around every call into a
reslat module (`tracer.py`). The per-layer metrics come from this run only,
and the spans are written to `.bench_out/`.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 5  # set-up is repeated and its median reported
OP_TIMEOUT_S = 30.0  # an invocation still running after this is killed and failed
HARD_STOP_S = 120.0  # no new invocation starts after this much timed wall time
INTERP_RUNS = 7  # samples each of bare interpreter start and `import reslat`


@dataclass
class Sample:
    """One invocation: its operation, wall time, peak RSS and verdict."""

    op: str
    seconds: float
    rss_kb: int
    code: int | None  # None when it was killed for running too long
    ok: bool
    digest: str  # sha256 of stdout, printed for information only


class Tally:
    """Counts attempted and failed invocations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def judge(self, op: workloads.Op, code: int | None, out: str, err: str) -> bool:
        """An invocation fails on a timeout, on exit 2 (an equivalence
        violation), on any other unexpected exit code, or when its output
        fails the operation's oracle."""
        ok = (
            code is not None
            and code != workloads.EX_VIOLATION
            and code == op.expect_code
            and op.check(out, err)
        )
        self.attempted += 1
        self.failed += not ok
        return ok

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# --- the program under test -------------------------------------------------


def import_program():
    """Import reslat from this checkout's sources, or exit if they are absent."""
    if not (SRC / "reslat" / "__init__.py").is_file():
        sys.exit(f"bench: no reslat sources at {SRC / 'reslat'}")
    sys.path.insert(0, str(SRC))
    import reslat

    if Path(reslat.__file__).resolve().parent != (SRC / "reslat").resolve():
        sys.exit(f"bench: imported reslat from {reslat.__file__}, not from {SRC}")
    return reslat


def child_env(op: workloads.Op | None = None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "RESLAT_MAX_SIZE")}
    env["PYTHONPATH"] = str(SRC)
    if op is not None:
        env.update(op.env)
    return env


class Launcher:
    """The `launcher.py` process that spawns and measures every child."""

    def __init__(self, workdir: Path):
        self.stdout = workdir / "stdout"
        self.stderr = workdir / "stderr"
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )

    def run(self, argv: list[str], env: dict[str, str]):
        """(wall seconds, peak RSS in KiB, exit code or None if killed,
        stdout, stderr) of one child run to its end."""
        request = {"argv": argv, "env": env, "stdout": str(self.stdout),
                   "stderr": str(self.stderr), "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process ended early")
        reply = json.loads(line)
        out = self.stdout.read_text(encoding="utf-8", errors="replace")
        err = self.stderr.read_text(encoding="utf-8", errors="replace")
        return reply["seconds"], reply["rss_kb"], reply["code"], out, err

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_op(op: workloads.Op, tally: Tally, launcher: Launcher) -> Sample:
    argv = [sys.executable, "-m", "reslat.cli", *op.command()]
    seconds, rss_kb, code, out, err = launcher.run(argv, child_env(op))
    ok = tally.judge(op, code, out, err)
    return Sample(op.name, seconds, rss_kb, code, ok, hashlib.sha256(out.encode()).hexdigest())


# --- set-up -------------------------------------------------------------------


def set_up(workload: str, seed: int, reslat, scratch: Path, tally: Tally,
           launcher: Launcher):
    """Build and write the inputs, then make one warm-up invocation.
    Returns (seconds taken, operations with their input paths, warm-up)."""
    start = time.perf_counter()
    inputs = Path(tempfile.mkdtemp(prefix="inputs-", dir=scratch))
    ops = workloads.write_inputs(
        workloads.build_ops(workload, reslat), reslat, str(inputs), random.Random(seed)
    )
    warm = run_op(ops[0], tally, launcher)
    return time.perf_counter() - start, ops, warm


# --- end-to-end ---------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, int]:
    """(p90 by nearest rank, number of samples above it).

    Rounds are whole, so every run has the same mix of operations and a fixed
    percentile falls on the same kind of operation whatever the number of
    rounds. A rank set by a count of samples above it would move from one
    kind of operation to a dearer one as the program gets faster."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def timed_loop(ops, seconds: float, rng: random.Random, tally: Tally,
               launcher: Launcher):
    """Whole rounds in seeded order until `seconds` have passed."""
    samples: list[Sample] = []
    start = time.perf_counter()
    rounds = 0
    while time.perf_counter() - start < seconds:
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            if time.perf_counter() - start > HARD_STOP_S:
                break
            samples.append(run_op(op, tally, launcher))
        rounds += 1
    return samples, time.perf_counter() - start, rounds


def end_to_end(args, reslat, scratch: Path) -> dict:
    tally = Tally()
    with Launcher(scratch) as launcher:
        setups, warmups = [], []
        for _ in range(SETUPS):
            took, ops, warm = set_up(args.workload, args.seed, reslat, scratch, tally,
                                     launcher)
            setups.append(took)
            warmups.append(warm)
        rng = random.Random(args.seed)
        samples, wall, rounds = timed_loop(ops, args.seconds, rng, tally, launcher)
    latencies = [s.seconds for s in samples]
    p_tail, above = tail(latencies)
    passed = sum(s.ok for s in samples)
    metrics = {
        "ops_per_s": (passed / wall, "1/s"),
        "latency_mean_s": (statistics.fmean(latencies), "s"),
        "latency_p90_s": (p_tail, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(s.rss_kb for s in samples) / 1024, "MB"),
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(samples)} invocations, "
          f"{rounds} rounds of {len(ops)}, {wall:.3f} s timed, one client, closed loop")
    print(f"latency_p90_s is the p90 of {len(samples)} samples, {above} above it")
    print(f"latency_p50_s {statistics.median(latencies):.6g} s (information only: "
          f"the median jumps between the modes of the latency distribution)")
    print(f"failed_ratio {tally.failed_ratio:.4f} ratio ({tally.failed} of "
          f"{tally.attempted}, warm-ups included)")
    print_per_op(samples + warmups)
    return result(tally, metrics)


def print_per_op(samples: list[Sample]) -> None:
    """Median time and report digest per operation; the digest is informative."""
    by_op: dict[str, list[Sample]] = {}
    for s in samples:
        by_op.setdefault(s.op, []).append(s)
    for name, group in by_op.items():
        med = statistics.median(s.seconds for s in group)
        bad = sum(not s.ok for s in group)
        digests = sorted({s.digest[:16] for s in group})
        print(f"  op {name}: n={len(group)} median={med:.4f} s failed={bad} "
              f"exit={group[0].code} sha256={','.join(digests)}")


# --- traced in-process replay ------------------------------------------------


def bare_start_times(launcher: Launcher) -> tuple[float, float]:
    """Median wall time of `python -c pass` and of `python -c 'import reslat'`."""
    env = child_env()
    bare = [launcher.run([sys.executable, "-c", "pass"], env)[0]
            for _ in range(INTERP_RUNS)]
    imp = [launcher.run([sys.executable, "-c", "import reslat"], env)[0]
           for _ in range(INTERP_RUNS)]
    return statistics.median(bare), statistics.median(imp)


@contextlib.contextmanager
def op_env(op: workloads.Op):
    saved = {k: os.environ.get(k) for k, _ in op.env}
    os.environ.update(op.env)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def replay(ops, tally: Tally, tracer: Tracer | None = None) -> float:
    """Run each operation through reslat.cli.main in this process; returns
    the summed wall seconds of the calls."""
    from reslat import catalog, cli

    main = tracer.entry.main if tracer is not None else cli.main
    total = 0
    for i, op in enumerate(ops):
        # A fresh process starts with an empty catalog; a shared instance
        # would carry its analysis cache into the next operation.
        catalog._built.clear()
        if tracer is not None:
            tracer.op_id = i
        out, err = io.StringIO(), io.StringIO()
        with op_env(op), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            code = main(op.command())
            total += time.perf_counter_ns() - start
        tally.judge(op, code, out.getvalue(), err.getvalue())
    catalog._built.clear()
    return total / 1e9


def traced(args, reslat, scratch: Path) -> dict:
    tally = Tally()
    with Launcher(scratch) as launcher:
        _, ops, _ = set_up(args.workload, args.seed, reslat, scratch, tally, launcher)
        interp_s, import_s = bare_start_times(launcher)
    order = list(ops)
    random.Random(args.seed).shuffle(order)  # the first round of the timed run
    untraced_s = replay(order, tally)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = replay(order, tally, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(untraced_s, traced_s)
    metrics["cli.interp_s"] = (interp_s, "s")
    metrics["cli.import_s"] = (import_s - interp_s, "s")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz"
    tracer.write(str(spans), [op.name for op in order])
    print(f"workload {args.workload}, seed {args.seed}: {len(order)} operations "
          f"replayed in process, {untraced_s:.3f} s plain, {traced_s:.3f} s traced")
    print(f"{metrics['trace.spans'][0]} spans written to {spans.relative_to(ROOT)}")
    return result(tally, metrics)


# --- output ---------------------------------------------------------------------


def result(tally: Tally, metrics: dict[str, tuple[float, str]]) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    reslat = import_program()
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        res = (traced if args.trace else end_to_end)(args, reslat, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
