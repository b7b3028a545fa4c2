"""Closed-loop benchmark of the paritylp command line.

    python3 bench/run.py --workload exact-lp --seed 1 --seconds 30 --trace 0

One client, one process, one thread: each job is one CLI command run
in-process through `paritylp.cli.main(argv)` with `--out` pointing at a
scratch file, and the next job starts when the previous one returns.  A
round of jobs is sized from `--seconds` (see workloads.py), so every run
of one seed does the same work.  `--trace 0` runs the round's first
jobs once to warm up, then the round, with a speed probe between jobs,
and prints the end-to-end metrics from job times scaled to a reference
speed (speed.py); `--trace 1` runs the round untraced, then traced, and
prints the per-layer metrics.  After the timed region every
execution's answer is checked against HiGHS (reference.py).  The last
stdout line is the JSON result; a fuller record (environment, every job,
spans) goes to .bench_out/.
"""

import os

# Pin BLAS/OpenMP pools before numpy can be imported by anything below.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".bench_out")
# Set-up is timed in fresh processes, SETUP_BATCH of them before the
# timed round and SETUP_BATCH after it.
SETUP_BATCH = 4
TAIL_BEYOND = 10
# Report keys before the operator dump; read alone so that checking a povm
# report does not load its tens of megabytes into the driver's memory.
POVM_KEY = '\n  "povm": '


def import_program():
    """Import paritylp from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import paritylp.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import paritylp from {src}: {exc}")
    if Path(paritylp.cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"bench: paritylp resolved outside {src}")
    return paritylp.cli


def read_report(path: Path) -> str | None:
    """A report's JSON text, kept as one string until the checks parse it."""
    if not path.exists():
        return None
    with open(path) as fh:
        head = fh.read(1 << 16)
        cut = head.find(POVM_KEY)
        if cut >= 0:
            return head[:cut].rstrip(",") + "\n}"
        return head + fh.read()


def report_bytes(path: Path) -> int:
    """Report size with timing fields blanked, so equal work gives equal bytes."""
    data = path.read_bytes()
    return len(re.sub(rb'"wall_time_s": [^,\n}]+', b'"wall_time_s": 0', data))


def run_round(cli, jobs, out_path: Path, recorder=None, first_id: int = 0,
              sizes: list | None = None, probes: list | None = None,
              probe_reps: int = 1) -> list:
    """Run every job once; returns (job, wall seconds, exit code, error, report text).

    With `probes`, `probe_reps` speed probes run before each job and after
    the last.
    """
    records = []
    for offset, job in enumerate(jobs):
        if out_path.exists():
            out_path.unlink()
        # A CLI user starts each command in a fresh process; start each job
        # from a collected heap instead of the previous job's garbage.
        gc.collect()
        if probes is not None:
            probes.extend(speed.probe() for _ in range(probe_reps))
        argv = [*job.argv, "--out", str(out_path)]
        error = None
        span = (recorder.job_span(first_id + offset, job.command) if recorder
                else contextlib.nullcontext())
        start = time.perf_counter()
        try:
            with span:
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a job that raises is a failed job, not a crash
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        report = read_report(out_path) if code == 0 else None
        if sizes is not None and out_path.exists():
            sizes.append(report_bytes(out_path))
        records.append((job, wall, code, error, report))
    if probes is not None:
        probes.extend(speed.probe() for _ in range(probe_reps))
    return records


def job_times(inputs, walls: list, probes: list) -> list:
    """The times the metrics use: wall times scaled to the reference speed
    (speed.py) job by job or by the whole run, as the workload says."""
    if inputs.scale == "job":
        return speed.scale(walls, probes)
    return speed.scale_run(walls, probes)


def tail(times: list):
    """Highest percentile with TAIL_BEYOND jobs above it, if above the median.

    Returns (value, percentile).  A round too small for such a percentile
    to lie above the median reports its slowest job as percentile 100.
    """
    ordered = sorted(times)
    idx = len(ordered) - 1 - TAIL_BEYOND
    if idx <= (len(ordered) - 1) / 2:
        return ordered[-1], 100.0
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def measure_setup(args) -> list:
    """Scaled wall times of SETUP_BATCH fresh processes that import paritylp
    and write the inputs."""
    times, probes = [], []
    for rep in range(SETUP_BATCH):
        target = OUT_DIR / f"setup-{args.workload}-{args.seed}-{rep}"
        probes.append(speed.probe())
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__)), "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--size", args.size, "--setup-only", str(target)], check=True)
        times.append(time.perf_counter() - start)
        shutil.rmtree(target, ignore_errors=True)
    probes.append(speed.probe())
    return speed.scale(times, probes)


def setup(args, input_dir: Path):
    cli = import_program()
    inputs = workloads.make_inputs(args.workload, args.seed, args.size, args.seconds,
                                   str(input_dir))
    workloads.write_profiles(inputs, str(input_dir))
    return cli, inputs


def environment(args) -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def check_all(inputs, records) -> list:
    ref = reference.Reference(inputs)
    failures = []
    for job, _, code, error, text in records:
        if error is not None:
            problems = [error]
        elif code != 0:
            problems = [f"exit code {code}"]
        else:
            problems = ref.check(job, None if text is None else json.loads(text))
        failures.append(problems)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="input size; 'tiny' is for the benchmark's own tests")
    parser.add_argument("--setup-only", dest="setup_only", metavar="DIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)

    if args.setup_only:
        setup(args, Path(args.setup_only))
        return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / tag
    shutil.rmtree(work, ignore_errors=True)
    out_path = work / "job.json"
    cli, inputs = setup(args, work / "inputs")

    result: dict = {}
    probes: list = []
    reps = speed.PROBES_PER_GAP[inputs.scale]
    if args.trace == 0:
        setup_times = measure_setup(args)
        warm = run_round(cli, inputs.jobs[:inputs.warmup], out_path)
        timed = run_round(cli, inputs.jobs, out_path, probes=probes, probe_reps=reps)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_times += measure_setup(args)
        records = warm + timed
    else:
        base_probes: list = []
        base = run_round(cli, inputs.jobs, out_path, probes=base_probes,
                         probe_reps=reps)
        recorder = SpanRecorder()
        sizes: list = []
        recorder.install()
        try:
            timed = run_round(cli, inputs.jobs, out_path, recorder,
                              first_id=len(base), sizes=sizes, probes=probes,
                              probe_reps=reps)
        finally:
            recorder.uninstall()
        records = base + timed

    failures = check_all(inputs, records)
    failed = sum(1 for p in failures if p)
    walls = [r[1] for r in timed]
    times = job_times(inputs, walls, probes)
    jobs_log = [{"job": r[0].label, "wall_s": r[1], "exit": r[2], "problems": p}
                for r, p in zip(records, failures)]
    for line, used in zip(jobs_log[len(records) - len(timed):], times):
        line["time_s"] = used

    if args.trace == 0:
        n = len(timed)
        correct = sum(1 for p in failures[len(warm):] if not p)
        tail_s, tail_pct = tail(times)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "jobs_per_s": (correct / sum(times), "1/s"),
            "job_p50_s": (statistics.median(times), "s"),
            "job_tail_s": (tail_s, "s"),
            "correct_ratio": (1.0 - failed / len(records), "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        result["samples"] = {
            "jobs": n, "warmup_jobs": len(warm), "tail_percentile": tail_pct,
            "fail_ratio": failed / len(records), "setup_s_each": setup_times,
            "probes_s": probes,
            # The same figures from wall times, for comparison.
            "wall": {"jobs_per_s": correct / sum(walls),
                     "job_p50_s": statistics.median(walls),
                     "job_tail_s": tail(walls)[0]},
        }
    else:
        base_s = sum(job_times(inputs, [r[1] for r in base], base_probes))
        traced_s = sum(times)
        metrics = layer_metrics(recorder, len(timed), sum(sizes),
                                traced_s / base_s - 1.0)
        result["samples"] = {"jobs": len(timed), "untraced_round_s": base_s,
                             "traced_round_s": traced_s,
                             "fail_ratio": failed / len(records)}
        result["spans"] = recorder.to_json()

    result.update(environment=environment(args),
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  jobs=jobs_log)
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"result-{tag}.json"
    with open(record_path, "w") as fh:
        json.dump(result, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)

    for line in jobs_log:
        if line["problems"]:
            print(f"bench: FAILED {line['job']}: {'; '.join(line['problems'])}")
    print(f"bench: {args.workload} seed={args.seed} {json.dumps(result['samples'])} "
          f"record={record_path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
