"""The benchmark's three workloads: command chains, the inputs each chain is
given, and the checks on everything the chain writes.

Every workload is one chain of `cornerforge` CLI commands run one after
another in a fresh directory.  The workload seed picks the chain's inputs:

* corner3d and fivepoint vary only inputs that leave the artifacts
  unchanged (delta, which is recorded in the sidecar but does not move the
  set once L is pinned; the order of pattern points, which counting and
  lifting do not depend on).  Every seed therefore does the same work and
  checks against one recorded reference.
* triforce draws its inputs from one of TRIFORCE_VARIANTS variants (seed
  modulo the count), each with its own recorded reference.  A variant
  relabels the vertices of one fixed random 3-graph, permutes one fixed set
  of kernel values over the kernel's cells and picks the sampling seed.
  Relabeling leaves hom_count's search the same size (eight independent
  random graphs moved it between 1.7 s and 2.6 s).  The kernel values avoid
  0 and 1, so every pair draws its SHA-256 coin, and their mean is fixed at
  9/32, so every variant expects the same sample size (about 150k of the
  531,441 pairs of F_3^6).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

TRIFORCE_VARIANTS = 8
LIFT_POINTS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0))
SPECTRUM_JSON = ("spec_F.json", "spec_G.json", "spec_S.json")
KERNEL_SIXTEENTHS = (1, 2, 3, 4, 5, 6, 7, 8)


@dataclass
class Command:
    args: list
    outputs: tuple = ()  # artifacts the command writes, sidecars included
    stdout: Optional[str] = None  # artifact that receives standard output

    @property
    def group(self) -> str:
        return self.args[0]


@dataclass
class Chain:
    reference: str  # key in references.json
    files: dict  # input files written before the first command
    commands: list
    given: dict = field(default_factory=dict)  # artifact -> fields set by the seed
    cross_check: Optional[Callable] = None  # (workdir) -> [(command index, message)]

    def producer(self) -> dict:
        """artifact name -> index of the command that writes it"""
        out = {}
        for i, cmd in enumerate(self.commands):
            for name in cmd.outputs + ((cmd.stdout,) if cmd.stdout else ()):
                out[name] = i
        return out


def _delta(rng: random.Random) -> str:
    return f"{rng.uniform(0.05, 0.45):.4f}"


def _points(rng: random.Random) -> str:
    pts = list(LIFT_POINTS)
    rng.shuffle(pts)
    return "points:" + ";".join(f"{x},{y}" for x, y in pts)


def corner3d(seed: int) -> Chain:
    rng = random.Random(f"corner3d:{seed}")
    delta = _delta(rng)
    return Chain(
        "corner3d",
        {},
        [
            Command(
                ["construct", "corner3d", "--delta", delta, "--length", "8", "--q-max", "500", "-o", "A.set"],
                ("A.set", "A.set.params.json"),
            ),
            Command(["verify", "avoidance", "--set", "A.set", "--params", "A.set.params.json", "-o", "avoid.csv"], ("avoid.csv",)),
            Command(["count", "spectrum", "--set", "A.set", "--pattern", "corner3", "--format", "csv", "-o", "spec.csv"], ("spec.csv",)),
        ],
        given={"A.set.params.json": {"delta": float(delta)}},
        cross_check=_avoidance_matches_spectrum,
    )


def _avoidance_matches_spectrum(workdir: Path) -> list:
    """verify avoidance and count spectrum count corners on separate code
    paths; they must agree for every d, and every d must pass."""
    with open(workdir / "avoid.csv") as fh:
        rows = [line.strip().split(",") for line in fh][1:]
    with open(workdir / "spec.csv") as fh:
        spec = dict(line.strip().split(",") for line in list(fh)[1:])
    problems = []
    if {r[0]: r[1] for r in rows} != spec:
        problems.append((2, "count spectrum and verify avoidance disagree on corner counts"))
    if any(r[3] != "1" for r in rows):
        problems.append((1, "verify avoidance reports a failing d"))
    return problems


def fivepoint(seed: int) -> Chain:
    rng = random.Random(f"fivepoint:{seed}")
    delta = _delta(rng)
    a_pattern = "a:" + ",".join(str(v) for v in rng.sample(range(5), 5))
    lift_pattern, count_pattern = _points(rng), _points(rng)
    a = "0,1,2,3,4"
    return Chain(
        "fivepoint",
        {},
        [
            Command(
                ["construct", "fivepoint", "--a", a, "--delta", delta, "--length", "16", "--q-max", "100000", "-o", "F.set"],
                ("F.set", "F.set.params.json"),
            ),
            Command(["count", "spectrum", "--set", "F.set", "--pattern", a_pattern, "-o", "spec_F.json"], ("spec_F.json",)),
            Command(["construct", "lift", "--pattern", lift_pattern, "--base", "F.set", "-o", "G.set"], ("G.set", "G.set.params.json")),
            Command(["count", "spectrum", "--set", "G.set", "--pattern", count_pattern, "-o", "spec_G.json"], ("spec_G.json",)),
            Command(["construct", "qcfree", "--a", a, "--length", "4096", "-o", "qc.set"], ("qc.set", "qc.set.params.json")),
            Command(["verify", "qcfree", "--a", a, "--set", "qc.set"], stdout="verify_qc.json"),
            Command(["construct", "alpha", "--m", "16", "--r", "2", "-o", "alpha.json"], ("alpha.json", "alpha.json.params.json")),
            Command(["verify", "alpha", "--alpha", "alpha.json"], stdout="verify_alpha.json"),
        ],
        given={"F.set.params.json": {"delta": float(delta)}, "G.set.params.json": {"pattern": lift_pattern}},
    )


def _hypergraph_text(rng: random.Random, n: int = 30, m: int = 150) -> str:
    base = random.Random("triforce:graph").sample(list(itertools.combinations(range(n), 3)), m)
    label = rng.sample(range(n), n)
    edges = sorted(tuple(sorted(label[v] for v in e)) for e in base)
    return f"3 {n} {m}\n" + "".join(f"{a} {b} {c}\n" for a, b, c in edges)


def _kernel_text(rng: random.Random) -> str:
    # g = 2: eight cells, one line per (z, y) with x fastest
    values = [f"{v}/16" for v in rng.sample(KERNEL_SIXTEENTHS, 8)]
    return "2\n" + "".join(f"{values[i]} {values[i + 1]}\n" for i in range(0, 8, 2))


def triforce(seed: int) -> Chain:
    variant = seed % TRIFORCE_VARIANTS
    rng = random.Random(f"triforce:{variant}")
    files = {"H.hg": _hypergraph_text(rng), "W.k": _kernel_text(rng)}
    sample_seed = str(rng.randrange(1_000_000))
    return Chain(
        f"triforce/{variant}",
        files,
        [
            Command(["count", "homs", "--motif", "triforce", "--hypergraph", "H.hg"], stdout="homs.json"),
            Command(["count", "triforce", "--kernel", "W.k"], stdout="triforce.json"),
            Command(
                ["construct", "mandache", "--kernel", "W.k", "--group", "fp:3:6", "--seed", sample_seed, "-o", "S.gset"],
                ("S.gset", "S.gset.params.json"),
            ),
            Command(["count", "spectrum", "--set", "S.gset", "-o", "spec_S.json"], ("spec_S.json",)),
            Command(["report", "mandache", "--kernel", "W.k", "--group", "fp:3:4", "--seeds", "0:30", "-o", "report.json"], ("report.json",)),
        ],
        cross_check=_triforce_cross_check,
    )


def _triforce_cross_check(workdir: Path) -> list:
    """hom_count (depth-first search) and kforce_density (codegrees) are
    independent paths to the same number; the report and the sample must
    name the same kernel."""
    problems = []
    homs = json.loads((workdir / "homs.json").read_text())
    n = int((workdir / "H.hg").read_text().split()[1])
    if Fraction(homs["kforce_density"]) * n**6 != homs["hom_count"]:
        problems.append((0, "hom_count disagrees with kforce_density"))
    sidecar = json.loads((workdir / "S.gset.params.json").read_text())
    report = json.loads((workdir / "report.json").read_text())
    if sidecar["kernel_hash"] != report["kernel_hash"]:
        problems.append((4, "report and sample fingerprint different kernels"))
    return problems


WORKLOADS = {"corner3d": corner3d, "fivepoint": fivepoint, "triforce": triforce}


# -- references --------------------------------------------------------------


def _fields(name: str, data: bytes):
    """The recorded fields of a JSON artifact; spectra keep their summary."""
    obj = json.loads(data)
    if name in SPECTRUM_JSON:
        return {"total": obj["total"], "max_d": obj["max_d"], "max_count": obj["max_count"], "entries": len(obj["counts"])}
    return obj


def describe(chain: Chain, workdir: Path) -> dict:
    """Reference entry for every artifact of a finished chain: the SHA-256 of
    its bytes, the fields of JSON artifacts, and for sidecars holding
    seed-chosen values only the fields the seed does not choose."""
    entry = {}
    for name in chain.producer():
        data = (workdir / name).read_bytes()
        given = chain.given.get(name)
        item = {} if given else {"sha256": hashlib.sha256(data).hexdigest()}
        if name.endswith(".json"):
            fields = _fields(name, data)
            item["fields"] = {k: v for k, v in fields.items() if not given or k not in given}
        entry[name] = item
    return entry


def check(chain: Chain, workdir: Path, reference: dict) -> list:
    """[(command index, message)] for every artifact that differs from its
    reference, plus the chain's own cross-checks."""
    producer = chain.producer()
    problems = []
    for name, want in reference.items():
        path = workdir / name
        if not path.exists():
            problems.append((producer[name], f"{name}: missing"))
            continue
        data = path.read_bytes()
        if "sha256" in want and hashlib.sha256(data).hexdigest() != want["sha256"]:
            problems.append((producer[name], f"{name}: SHA-256 differs from the reference"))
            continue
        if "fields" in want:
            try:
                got = _fields(name, data)
            except (ValueError, KeyError):
                problems.append((producer[name], f"{name}: not the expected JSON"))
                continue
            expect = {**want["fields"], **chain.given.get(name, {})}
            bad = sorted(k for k in expect.keys() | got.keys() if got.get(k) != expect.get(k))
            if bad:
                problems.append((producer[name], f"{name}: fields differ: {', '.join(bad)}"))
    if chain.cross_check is not None:
        try:
            problems += chain.cross_check(workdir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append((len(chain.commands) - 1, f"cross-check could not read the outputs: {exc}"))
    return problems
