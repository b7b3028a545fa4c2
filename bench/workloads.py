"""Seeded inputs and job lists for the benchmark's workloads.

A workload turns a seed into profile files and one *round*: the ordered
list of CLI jobs a closed-loop client sends.  The same seed always gives
the same files and the same round.  Only the profile files reach the
program.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("exact-lp", "measure-n5")

# The round is sized from --seconds: units = max(min_units, round(seconds /
# unit_s)), where unit_s is about what one unit takes at the reference speed
# of speed.py, so the timed round measures about --seconds of work and does
# the same jobs on every run of one seed.  A unit is 6 jobs for exact-lp
# (the six commands, each on a profile of its own) and one profile's 3 jobs
# for measure-n5.  An untraced run first runs the round's first `warmup`
# jobs, untimed.  `scale` says how job times are scaled to the probe's
# reference speed (speed.py): by the probes around each job ("job", for
# jobs of tenths of a second) or by the mean of the run's probes ("run",
# for jobs of seconds); see the README's "Steadiness".  "tiny" keeps the
# benchmark's own tests to seconds.
SIZES = {
    "full": {
        "exact-lp": {"n": 4, "unit_s": 1.5, "min_units": 2, "warmup": 6,
                     "scale": "job"},
        "measure-n5": {"n": 5, "unit_s": 7.5, "min_units": 2, "warmup": 2,
                       "scale": "run", "shots": 1_000_000},
    },
    "tiny": {
        "exact-lp": {"n": 3, "unit_s": math.inf, "min_units": 2, "warmup": 6,
                     "scale": "job"},
        "measure-n5": {"n": 3, "unit_s": math.inf, "min_units": 3, "warmup": 2,
                       "scale": "run", "shots": 20_000},
    },
}

EXACT_TAU = 2
BALL_D = 1
BALL_GAMMA = 2.5
CANDIDATE_FAMILIES = ("hamming", "cohamming", "spike")


@dataclass(frozen=True)
class Job:
    """One CLI command; `check` holds what the reference checker needs."""

    command: str
    argv: tuple
    profile: str
    check: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        extra = ",".join(f"{k}={v}" for k, v in sorted(self.check.items()))
        return f"{self.command}[{self.profile}{',' if extra else ''}{extra}]"


@dataclass
class Inputs:
    profiles: dict   # profile id -> profile JSON dict
    jobs: list       # one round of Job
    warmup: int      # jobs run untimed before the timed round
    scale: str       # "job" or "run": how job times are scaled (speed.py)


def _rational_full(rng: random.Random, n: int) -> dict:
    nums = [rng.randint(1, 30) for _ in range(1 << n)]
    total = sum(nums)
    return {"n": n, "weights": [str(Fraction(v, total)) for v in nums]}


def _rational_ball(rng: random.Random, n: int, radius: int) -> dict:
    """Supported on a Hamming ball around a random centre; zero elsewhere."""
    centre = rng.randrange(1 << n)
    nums = [rng.randint(1, 20) if (i ^ centre).bit_count() <= radius else 0
            for i in range(1 << n)]
    total = sum(nums)
    return {"n": n, "weights": [str(Fraction(v, total)) for v in nums]}


def _float_weights(rng: random.Random, n: int) -> list:
    raw = [rng.uniform(0.05, 1.0) for _ in range(1 << n)]
    total = math.fsum(raw)
    return [v / total for v in raw]


def _phased(rng: random.Random, n: int) -> dict:
    """Full-support amplitudes with random complex phases."""
    amps = []
    for w in _float_weights(rng, n):
        phase = rng.uniform(0.0, 2.0 * math.pi)
        r = math.sqrt(w)
        amps.append({"re": r * math.cos(phase), "im": r * math.sin(phase)})
    return {"n": n, "amplitudes": amps}


def _exact_jobs(prof: list) -> list:
    """The six exact commands of a unit, as (command, argv, check)."""
    ball = ("--d", str(BALL_D), "--gamma", str(BALL_GAMMA))
    return [
        ("solve", ("solve", *prof, "--cost", "average"), {"cost": "average"}),
        ("solve", ("solve", *prof, "--cost", "threshold", "--tau", str(EXACT_TAU)),
         {"cost": "threshold", "tau": EXACT_TAU}),
        ("verify", ("verify", *prof, "--family", "hamming"), {"family": "hamming"}),
        ("verify", ("verify", *prof, "--family", "spike"), {"family": "spike"}),
        ("verify", ("verify", *prof, "--family", "threshold-ball", *ball),
         {"family": "threshold-ball", "d": BALL_D, "gamma": BALL_GAMMA}),
        ("threshold", ("threshold", *prof, "--tau", str(EXACT_TAU)), {"tau": EXACT_TAU}),
    ]


# Slots of _exact_jobs that get a ball-supported profile: the hamming and
# spike verifies and threshold, which then meet a zero set.  The two solves
# and the threshold-ball verify get full-support profiles.
BALL_SLOTS = (2, 3, 5)


def _exact_lp(rng: random.Random, n: int, count: int, path) -> tuple[dict, list]:
    """`count` units of the six commands, every job on a profile of its own.

    A profile's pivot count drives the cost of every command run on it, so
    one profile per job makes a round's cost an average over as many
    independent profiles as it has jobs, and the seed moves it less.  Half
    the profiles have full support and half sit on a Hamming ball (BALL_SLOTS,
    radius 1 and 2 in turn).  Full-support solves are the slow third of the
    jobs, so the tail percentile (ten jobs beyond it) falls inside their
    cluster and the median inside the cluster of the other commands, rather
    than on the edge between the two.
    """
    profiles, jobs = {}, []
    balls = 0
    for _ in range(count):
        for slot in range(6):
            pid = f"p{len(jobs)}"
            if slot in BALL_SLOTS:
                profiles[pid] = _rational_ball(rng, n, 1 + balls % 2)
                balls += 1
            else:
                profiles[pid] = _rational_full(rng, n)
            prof = ["--profile", path(pid), "--mode", "exact"]
            command, argv, check = _exact_jobs(prof)[slot]
            jobs.append(Job(command, argv, pid, check))
    return profiles, jobs


def _measure_n5(rng: random.Random, n: int, count: int, shots: int,
                path) -> tuple[dict, list]:
    """`count` units of candidate, simulate and povm, each job on a profile of
    its own, so that the float LP's pivot count varies independently per job."""
    profiles, jobs = {}, []
    first = rng.randrange(len(CANDIDATE_FAMILIES))
    for idx in range(count):
        pids = [f"m{len(profiles) + k}" for k in range(3)]
        for pid in pids:
            profiles[pid] = _phased(rng, n)
        x = "".join(rng.choice("01") for _ in range(n))
        sim_seed = rng.randrange(1 << 31)
        family = CANDIDATE_FAMILIES[(first + idx) % len(CANDIDATE_FAMILIES)]
        # The cheap candidate first, so that a warm-up of two jobs runs the
        # float LP and numpy once without costing a povm.
        jobs.append(Job("primal-candidate",
                        ("primal-candidate", "--profile", path(pids[0]),
                         "--family", family), pids[0], {"family": family}))
        jobs.append(Job("simulate", ("simulate", "--profile", path(pids[1]),
                                     "--mode", "float", "--shots", str(shots),
                                     "--x", x, "--seed", str(sim_seed)), pids[1],
                        {"shots": shots}))
        jobs.append(Job("povm", ("povm", "--profile", path(pids[2]), "--mode", "float"),
                        pids[2], {}))
    return profiles, jobs


def make_inputs(workload: str, seed: int, size: str, seconds: float,
                input_dir: str) -> Inputs:
    """Build one round of jobs; profile paths point into `input_dir`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    cfg = SIZES[size][workload]
    units = max(cfg["min_units"], round(seconds / cfg["unit_s"]))
    rng = random.Random(f"{workload}:{seed}")

    def path(pid: str) -> str:
        return str(Path(input_dir) / f"{pid}.json")

    if workload == "exact-lp":
        profiles, jobs = _exact_lp(rng, cfg["n"], units, path)
    else:
        profiles, jobs = _measure_n5(rng, cfg["n"], units, cfg["shots"], path)
    return Inputs(profiles, jobs, cfg["warmup"], cfg["scale"])


def write_profiles(inputs: Inputs, input_dir: str) -> None:
    Path(input_dir).mkdir(parents=True, exist_ok=True)
    for pid, data in inputs.profiles.items():
        with open(Path(input_dir) / f"{pid}.json", "w") as fh:
            json.dump(data, fh)
