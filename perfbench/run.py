"""Benchmark of the cornerforge CLI pipelines.

    python3 perfbench/run.py --workload corner3d|fivepoint|triforce \
        --seed N --seconds S --trace 0|1

Runs the workload's command chain (see workloads.py) again and again for
about S seconds as `python -m cornerforge.cli` subprocesses: a closed loop
with one client, each command started only after the previous one ended,
nothing else running.  Every chain starts in a fresh directory, and every
output is checked against references.json, recorded from the seed code.

--trace 0 prints the end-to-end metrics, built from each command's median
over the chains of the run.
--trace 1 runs one untraced chain, then traced chains in which every command
goes through launch.py, and prints per-layer self times and counts of the
median traced chain.  The line before the last holds the details: every
command's timings, the per-group times, failures, the machine and the
kernels' working sets.  The last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from launch import LAYERS  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402

SETUP_PROBES = 7  # cold `--version` starts per run; setup_s is their median
HARD_LIMIT_S = 160  # commands still running this long after the run began are killed

# (name, unit, better); every run prints all of them.  The per-group sums
# (construct_s, verify_s, count_s, report_s) are in the detail line only: a
# group exists on some workloads only, and the shortest groups spread by more
# than any allowed bound from run to run on a shared two-core machine.
END_TO_END = [
    ("pipeline_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def _self(name):
    return lambda spans, counters: spans.get(name, (0, 0.0, 0.0))[2]


def _calls(name):
    return lambda spans, counters: spans.get(name, (0, 0.0, 0.0))[0]


def _counter(name):
    return lambda spans, counters: counters.get(name, 0)


def _layer_self(layer):
    return lambda spans, counters: sum(v[2] for k, v in spans.items() if k.split(".")[0] == layer)


def _ratio(num, den):
    return lambda spans, counters: num(spans, counters) / den(spans, counters) if den(spans, counters) else 0.0


# (name, unit, better, value from the summed spans and counters of one chain)
PER_LAYER = [
    ("cli.self_s", "s", "lower", _self("cli.main")),
    ("formats.self_s", "s", "lower", _layer_self("formats")),
    ("formats.read_grid_s", "s", "lower", _self("formats.read_grid")),
    ("formats.write_grid_s", "s", "lower", _self("formats.write_grid")),
    ("formats.read_group_s", "s", "lower", _self("formats.read_group")),
    ("formats.write_group_s", "s", "lower", _self("formats.write_group")),
    ("formats.bytes_read", "B", "lower", _counter("formats.bytes_read")),
    ("formats.bytes_written", "B", "lower", _counter("formats.bytes_written")),
    ("patterns.self_s", "s", "lower", _layer_self("patterns")),
    ("patterns.grid_spectrum_s", "s", "lower", _self("patterns.grid_spectrum")),
    ("patterns.grid_counts", "count", "lower", _counter("patterns.grid_counts")),
    ("patterns.grid_bits_anded", "bit", "lower", _counter("patterns.grid_bits_anded")),
    (
        "patterns.grid_gbits_per_s",
        "Gbit/s",
        "higher",
        _ratio(lambda s, c: c.get("patterns.grid_bits_anded", 0) / 1e9, _self("patterns.grid_spectrum")),
    ),
    ("patterns.group_count_s", "s", "lower", _self("patterns.group_count")),
    ("patterns.group_counts", "count", "lower", _calls("patterns.group_count")),
    ("patterns.set_build_s", "s", "lower", _self("patterns.set_build")),
    ("patterns.set_iter_s", "s", "lower", _self("patterns.set_iter")),
    ("avoiders.self_s", "s", "lower", _layer_self("avoiders")),
    ("avoiders.decide_s", "s", "lower", _self("avoiders.decide")),
    ("avoiders.decided_values", "count", "lower", _counter("avoiders.decided_values")),
    ("avoiders.materialize_s", "s", "lower", _self("avoiders.materialize")),
    ("avoiders.verify_s", "s", "lower", _self("avoiders.verify")),
    ("avoiders.select_s", "s", "lower", _self("avoiders.select")),
    ("avoiders.lift_s", "s", "lower", _self("avoiders.lift")),
    ("contfrac.self_s", "s", "lower", _layer_self("contfrac")),
    ("contfrac.build_alpha_s", "s", "lower", _self("contfrac.build_alpha")),
    ("contfrac.build_alpha_calls", "count", "lower", _calls("contfrac.build_alpha")),
    ("contfrac.verify_alpha_s", "s", "lower", _self("contfrac.verify_alpha")),
    ("contfrac.verify_alpha_calls", "count", "lower", _calls("contfrac.verify_alpha")),
    (
        "contfrac.verify_pass_ratio",
        "ratio",
        "higher",
        _ratio(_counter("contfrac.verify_alpha_passed"), _calls("contfrac.verify_alpha")),
    ),
    ("contfrac.convergent_calls", "count", "lower", _counter("contfrac.convergent_calls")),
    ("behrend.self_s", "s", "lower", _layer_self("behrend")),
    ("behrend.construct_s", "s", "lower", _self("behrend.construct")),
    ("behrend.witness_s", "s", "lower", _self("behrend.witness")),
    ("behrend.lambda_size", "count", "higher", _counter("behrend.lambda_size")),
    ("mandache.self_s", "s", "lower", _layer_self("mandache")),
    ("mandache.sample_s", "s", "lower", _self("mandache.sample")),
    (
        "mandache.pairs_per_s",
        "1/s",
        "higher",
        _ratio(_counter("mandache.pairs"), lambda s, c: s.get("mandache.sample", (0, 0.0, 0.0))[1]),
    ),
    ("mandache.report_self_s", "s", "lower", _self("mandache.report")),
    ("hypergraph.self_s", "s", "lower", _layer_self("hypergraph")),
    ("hypergraph.hom_count_s", "s", "lower", _self("hypergraph.hom_count")),
    ("hypergraph.kforce_s", "s", "lower", _self("hypergraph.kforce")),
    ("hypergraph.triforce_weighted_s", "s", "lower", _self("hypergraph.triforce_weighted")),
]
# filled from the chain's wall times; the layer self times, setup_total_s and
# remainder_s add up to pipeline_s
TRACE_TOTALS = [
    ("trace.pipeline_s", "s", "lower"),
    ("trace.setup_total_s", "s", "lower"),
    ("trace.remainder_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
COMPUTED = ("patterns.grid_bits_anded", "patterns.grid_gbits_per_s")


class Runner:
    """Starts commands one at a time and records what each one cost."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.deadline = started + HARD_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k != "CORNERFORGE_SEED"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def spawn(self, argv, cwd: Path, stdout: Path):
        """(wall seconds, exit code, peak RSS in MB) of one command."""
        self.attempted += 1
        with open(stdout, "wb") as out, open(stdout.with_suffix(".stderr"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            watchdog = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        return wall, proc.returncode, usage.ru_maxrss / 1024

    def fail(self, message):
        self.failed += 1
        self.failures.append(message)

    def setup_probe(self) -> float:
        out = self.workdir / "version.out"
        wall, code, _ = self.spawn([sys.executable, "-m", "cornerforge.cli", "--version"], self.workdir, out)
        if code != 0 or not out.read_text().startswith("cornerforge "):
            self.fail(f"--version exited {code}")
        return wall

    def chain(self, chain, traced: bool, check_outputs, flip=None) -> dict:
        """Run every command of the chain in a fresh directory, then hand the
        directory to check_outputs(), which returns [(command index, problem)].
        Returns the per-command walls and peak RSS, the traces of a traced
        chain, and the header line of every set artifact."""
        run_dir = Path(tempfile.mkdtemp(prefix="chain-", dir=self.workdir))
        try:
            for name, text in chain.files.items():
                (run_dir / name).write_text(text)
            walls, rss, traces = [], [], []
            bad = {}
            for i, cmd in enumerate(chain.commands):
                stdout = run_dir / (cmd.stdout or f"cmd{i}.stdout")
                trace = run_dir / f"cmd{i}.trace.json"
                if traced:
                    argv = [sys.executable, str(HERE / "launch.py"), str(trace), *cmd.args]
                else:
                    argv = [sys.executable, "-m", "cornerforge.cli", *cmd.args]
                wall, code, peak = self.spawn(argv, run_dir, stdout)
                walls.append(wall)
                rss.append(peak)
                if code != 0:
                    stderr = stdout.with_suffix(".stderr").read_text().strip().splitlines()
                    bad.setdefault(i, f"exit {code}: {stderr[-1] if stderr else ''}")
                if traced:
                    traces.append(json.loads(trace.read_text()) if trace.exists() else {"spans": {}, "counters": {}})
                if flip in cmd.outputs:
                    flip_one_bit(run_dir / flip)
            for i, message in check_outputs(run_dir):
                bad.setdefault(i, message)
            for i, message in sorted(bad.items()):
                self.fail(f"{' '.join(chain.commands[i].args[:2])}: {message}")
            headers = {}
            for name in chain.producer():
                if name.endswith((".set", ".gset")) and (run_dir / name).exists():
                    with open(run_dir / name) as fh:
                        headers[name] = fh.readline()
            return {"walls": walls, "rss": rss, "traces": traces, "headers": headers}
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)


def flip_one_bit(path: Path) -> None:
    """Flip the low bit of the first digit at or after the middle of the
    file: the digit stays a digit, so the file still parses."""
    data = bytearray(path.read_bytes())
    for pos in range(len(data) // 2, len(data)):
        if 0x30 <= data[pos] <= 0x39:
            data[pos] ^= 1
            path.write_bytes(bytes(data))
            return
    raise ValueError(f"{path.name} has no digit to flip")


def summary(values) -> dict:
    """Median, sample count, and the highest percentile that has at least ten
    samples beyond it (none below eleven samples; the maximum is shown)."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "max": values[-1], "n": n}
    if n >= 11:
        out[f"p{100 * (n - 10) / n:.0f}"] = values[n - 11]
    return out


def layer_metrics(traces, walls, setup: float, untraced_pipeline: float) -> dict:
    spans, counters = {}, {}
    for trace in traces:
        for name, (calls, total, self_s) in trace["spans"].items():
            agg = spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
    values = {name: fn(spans, counters) for name, _, _, fn in PER_LAYER}
    pipeline = sum(walls)
    setup_total = setup * len(walls)
    values["trace.pipeline_s"] = pipeline
    values["trace.setup_total_s"] = setup_total
    values["trace.remainder_s"] = pipeline - setup_total - sum(values[f"{layer}.self_s"] for layer in LAYERS)
    values["trace.overhead_s"] = pipeline - untraced_pipeline
    return values


def git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int, chain) -> dict:
    """Machine and software the numbers were measured on.  Reads the CPU
    model and cache sizes from /proc and /sys, read-only."""
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read(index / f) for f in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = f"{size} per {read(index / 'shared_cpu_list')}"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cornerforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
        "reference": chain.reference,
    }


def working_sets(headers) -> dict:
    """Bytes of the packed bit mask behind every set artifact, to set beside
    the cache sizes."""
    out = {}
    for name, header in headers.items():
        words = header.split()
        if words[:1] == ["dim"]:
            out[name] = int(words[3]) ** int(words[1]) // 8
        elif words[:2] == ["group", "fp"]:
            out[name] = (int(words[2]) ** int(words[3])) ** 2 // 8
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--flip", help="flip one bit of this artifact after it is written (self-test)")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through Runner.spawn so the running command is
    # killed and reaped, not left behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "cornerforge" / "cli.py").is_file():
        print(f"no cornerforge sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    references = json.loads((HERE / "references.json").read_text())
    chain = WORKLOADS[args.workload](args.seed)
    reference = references.get(chain.reference)

    def check_outputs(run_dir):
        if reference is None:
            return [(0, f"no reference recorded for {chain.reference}")]
        return check(chain, run_dir, reference)

    started = time.monotonic()
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        runner = Runner(workdir, started)
        window_end = started + args.seconds
        setup = statistics.median(runner.setup_probe() for _ in range(SETUP_PROBES))

        def fits(durations):
            return not durations or time.monotonic() + statistics.median(durations) <= window_end

        untraced, traced, spent = [], [], []
        if args.trace:
            untraced.append(runner.chain(chain, False, check_outputs, args.flip))
        while fits(spent):
            t0 = time.monotonic()
            (traced if args.trace else untraced).append(runner.chain(chain, bool(args.trace), check_outputs, args.flip))
            spent.append(time.monotonic() - t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    # A chain's time is the sum of its commands' median times: a burst of
    # load on the machine during one command of one chain is then outvoted
    # by the other chains instead of moving the whole chain.
    per_command = [statistics.median(c["walls"][i] for c in untraced) for i in range(len(chain.commands))]
    groups = {}
    for cmd, wall in zip(chain.commands, per_command):
        groups[f"{cmd.group}_s"] = groups.get(f"{cmd.group}_s", 0.0) + wall
    pipelines = [sum(c["walls"]) for c in untraced]

    if args.trace:
        layers = [layer_metrics(c["traces"], c["walls"], setup, statistics.median(pipelines)) for c in traced]
        chosen = sorted(layers, key=lambda m: m["trace.pipeline_s"])[(len(layers) - 1) // 2]
        units = [(n, u) for n, u, _, _ in PER_LAYER] + [(n, u) for n, u, _ in TRACE_TOTALS]
        metrics = {name: {"value": chosen[name], "unit": unit} for name, unit in units}
    else:
        values = {
            "pipeline_s": sum(per_command),
            "setup_s": setup,
            "peak_rss_mb": statistics.median(max(c["rss"]) for c in untraced),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}

    detail = {
        "workload": args.workload,
        "mode": "traced" if args.trace else "untraced",
        "loop": "closed, one client, one command at a time",
        "chains": {"untraced": len(untraced), "traced": len(traced)},
        "pipeline_s": sum(per_command),
        "groups_s": groups,
        "chain_wall_s": summary(pipelines),
        "commands": [
            {"args": " ".join(cmd.args), "wall_s": summary([c["walls"][i] for c in untraced])}
            for i, cmd in enumerate(chain.commands)
        ],
        "fail_ratio": runner.failed / runner.attempted,
        "failures": runner.failures[:20],
        "computed_not_measured": list(COMPUTED) if args.trace else [],
        "environment": environment(args.seed, chain),
        "working_set_bytes": working_sets(untraced[0]["headers"]),
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
