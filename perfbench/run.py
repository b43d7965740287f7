"""dynamap benchmark: four seeded workloads, end-to-end metrics or a traced per-layer pass.

    python3 perfbench/run.py --workload torus_family --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. Prints the machine block and every metric by
name with its unit, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
# the load comes from this one process with no more BLAS threads than cores;
# this must be set before numpy loads OpenBLAS. Each workload then sets its own
# thread count at run time (Workload.blas_threads).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(NPROC))

if not (ROOT / "src" / "dynamap" / "__init__.py").is_file():
    sys.exit(f"perfbench: no dynamap sources under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402,F401  (loads scipy's own OpenBLAS)

import dynamap  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import ACCEPTANCE_SEEDS, WORKLOADS, Verdict  # noqa: E402

IMPORT_S = time.perf_counter() - T_START
SETUP_REPEATS = 3
# the imports above, timed again in fresh interpreters for a median of five
IMPORT_PROBES = 4
IMPORT_PROBE = (
    "import sys, time; start = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import numpy, scipy.linalg, dynamap, tracer, workloads; "
    "print(time.perf_counter() - start)"
)
SMOKE_TIMEOUT_S = 170
# check details printed by name with units; the JSON keeps only metrics every
# workload has and that are never 0
DETAIL_UNITS = {"angle_accuracy": "fraction", "change_hits_top50": "count"}


class OpenBlas:
    """The OpenBLAS libraries numpy and scipy loaded, found through /proc/self/maps."""

    PREFIXES = ("scipy_openblas_", "openblas_")
    SUFFIXES = ("64_", "")

    def __init__(self):
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
        self.libs = {Path(p).name: ctypes.CDLL(p) for p in sorted(paths) if p.startswith("/")}

    def _fn(self, lib, name: str, restype):
        for prefix in self.PREFIXES:
            for suffix in self.SUFFIXES:
                fn = getattr(lib, prefix + name + suffix, None)
                if fn is not None:
                    fn.restype = restype
                    return fn
        return None

    def info(self) -> list[dict]:
        out = []
        for name, lib in self.libs.items():
            threads = self._fn(lib, "get_num_threads", ctypes.c_int)
            config = self._fn(lib, "get_config", ctypes.c_char_p)
            out.append({
                "library": name,
                "threads": threads() if threads else None,
                "config": config().decode() if config else None,
            })
        return out

    def set_threads(self, count: int) -> None:
        for lib in self.libs.values():
            fn = self._fn(lib, "set_num_threads", None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int]
                fn(count)


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _first_field(path: str, key: str) -> str:
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
    return "unknown"


def machine_block(blas: OpenBlas) -> dict:
    return {
        "nproc": NPROC,
        "cpu": _first_field("/proc/cpuinfo", "model name"),
        "mem_total_mb": round(int(_first_field("/proc/meminfo", "MemTotal").split()[0]) / 1024),
        "blas": blas.info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "dynamap": dynamap.__version__,
        "commit": _git_commit(),
    }


def import_seconds() -> float:
    samples = [IMPORT_S]
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(Path(__file__).parent)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def one_repetition(
    workload, state, rep: int, timed_region=contextlib.nullcontext()
) -> tuple[float, Verdict]:
    """Time one run of the workload inside `timed_region`, then check it outside."""
    gc.collect()
    # a repetition that raises or fails its check is counted, never dropped
    try:
        with timed_region:
            start = time.perf_counter()
            try:
                result = workload.run(state, rep)
            finally:
                wall = time.perf_counter() - start
        return wall, workload.check(state, result)
    except Exception:
        return wall, Verdict(False, {"error": traceback.format_exc(limit=4)})


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced set-up plus one traced repetition."""
    mb = 1e-6
    reads = ("matio.read_matrix", "matio.read_matrix_csv", "matio.read_matrix_bin")
    writes = ("matio.write_matrix", "matio.write_matrix_csv", "matio.write_matrix_bin")
    asymptotic = ("distances.asymptotic_diffusion_distance", "distances.asymptotic_distance_map",
                  "distances.asymptotic_global_distance")
    direct = ("distances.direct_diffusion_distance", "distances.direct_global_distance")
    meta = ("metagraph.meta_kernel", "metagraph.meta_embedding", "metagraph.meta_decomposition")
    return {
        "kernels.calibrate_s": (tr.seconds("kernels.calibrate_epsilon"), "s"),
        "kernels.calibrate.calls": (tr.calls("kernels.calibrate_epsilon"), "count"),
        "kernels.lam2_evals": (tr.calls("kernels.eigvalsh"), "count"),
        "kernels.lam2_fallbacks": (tr.errors("kernels.eigvalsh", "LinAlgError"), "count"),
        "kernels.squared_distances_s": (tr.seconds("kernels.squared_distances"), "s"),
        "kernels.squared_distances.calls": (tr.calls("kernels.squared_distances"), "count"),
        "kernels.gaussian_kernel_s": (tr.seconds("kernels.gaussian_kernel"), "s"),
        "operators.diffusion_matrix_s": (tr.seconds("operators.diffusion_matrix"), "s"),
        "operators.spectral_decomposition_s": (tr.seconds("operators.spectral_decomposition"), "s"),
        "operators.spectral_decomposition.calls": (
            tr.calls("operators.spectral_decomposition"), "count"),
        "operators.eigh_n3": (tr.amount("numpy.linalg.eigh"), "computed-count"),
        "distances.gram_matrix_s": (tr.seconds("distances.gram_matrix"), "s"),
        "distances.distance_map_s": (tr.seconds("distances.diffusion_distance_map"), "s"),
        "distances.distance_matrix_s": (tr.seconds("distances.diffusion_distance_matrix"), "s"),
        "distances.global_distance_matrix_s": (
            tr.seconds("distances.global_distance_matrix"), "s"),
        "distances.asymptotic_s": (tr.seconds(asymptotic), "s"),
        "distances.direct_s": (tr.seconds(direct), "s"),
        "distances.direct.calls": (tr.calls(direct), "count"),
        "embeddings.common_embedding_s": (tr.seconds("embeddings.common_embedding"), "s"),
        "embeddings.diffusion_map_s": (tr.seconds("embeddings.diffusion_map"), "s"),
        "metagraph.meta_s": (tr.seconds(meta), "s"),
        "metagraph.historical_kernel_s": (tr.seconds("metagraph.historical_kernel"), "s"),
        "metagraph.historical_embedding_s": (tr.seconds("metagraph.historical_embedding"), "s"),
        "metagraph.historical_kernel_mb": (
            tr.amount("metagraph.historical_kernel") * mb, "MB-computed"),
        "sampling.convergence_study.self_s": (
            tr.self_seconds("sampling.convergence_study"), "s"),
        "matio.read_s": (tr.seconds(reads), "s"),
        "matio.write_s": (tr.seconds(writes), "s"),
        "matio.read_mb": (tr.amount(reads) * mb, "MB"),
        "matio.write_mb": (tr.amount(writes) * mb, "MB"),
        "matio.calls": (tr.calls(reads + writes), "count"),
        "cli.self_s": (tr.self_seconds("cli.main"), "s"),
        "datasets.generate_s": (tr.seconds(tr.layer_names("datasets")), "s"),
    }


def measure_end_to_end(args, workload, workdir: Path):
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(args.seed, workdir, args.small)
        setups.append(time.perf_counter() - start)
    # tiny inputs make a noisier study: the smoke run checks repetition 0 only
    min_reps = 1 if args.small else workload.min_reps
    reps = []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < args.seconds:
        reps.append(one_repetition(workload, state, len(reps)))
    verdicts = [verdict for _, verdict in reps]
    return verdicts, {
        "wall_s": (statistics.median(wall for wall, _ in reps), "s"),
        "setup_s": (import_seconds() + statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_rate": (sum(v.ok for v in verdicts) / len(verdicts), "fraction"),
    }


def measure_traced(args, workload, workdir: Path, blas: OpenBlas, threads: int):
    """Repetition 0 three times: untraced, traced (with its set-up), other BLAS threads.

    The third run uses one BLAS thread if the workload runs on one per core,
    and one per core if it runs on one, so that the ratio is always one-thread
    over one-per-core time.
    """
    # warm the allocator and the BLAS threads on the tiny acceptance instance,
    # so that all three timed repetitions start from the same state
    workload.run(workload.setup(ACCEPTANCE_SEEDS[args.workload], workdir, True), 0)
    state = workload.setup(args.seed, workdir, args.small)
    untraced, first = one_repetition(workload, state, 0)
    tracer = Tracer()
    with tracer:
        state = workload.setup(args.seed, workdir, args.small)
    traced, second = one_repetition(workload, state, 0, tracer)
    tracer.dump(workdir.parent / f"trace-{args.workload}-seed{args.seed}.json")
    blas.set_threads(NPROC if threads == 1 else 1)
    try:
        rerun, third = one_repetition(workload, state, 0)
    finally:
        blas.set_threads(threads)
    single, per_core = (untraced, rerun) if threads == 1 else (rerun, untraced)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "fraction")
    metrics["blas.single_thread_ratio"] = (single / per_core, "ratio")
    return [first, second, third], metrics


def report(args, verdicts: list[Verdict], metrics: dict) -> dict:
    attempted = len(verdicts)
    fails = sum(not v.ok for v in verdicts)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} checked repetitions, {fails} failed")
    if not args.trace:
        print(f"  {'error_rate':<40} {fails / attempted:.4f} fraction")
        for key, unit in DETAIL_UNITS.items():
            values = [v.details[key] for v in verdicts if key in v.details]
            if values:
                print(f"  {key:<40} {statistics.median(values):.4f} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    for verdict in verdicts:
        if not verdict.ok:
            print(f"  failed check: {verdict.details}")
    return {
        "correct": fails == 0,
        "attempted": attempted,
        "failed": fails,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced, each in its own process."""
    bad = 0
    for name in WORKLOADS:
        for trace in ("0", "1"):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seconds", "0", "--trace", trace, "--small"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=SMOKE_TIMEOUT_S, check=False)
            lines = proc.stdout.strip().splitlines()
            ok = proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
            bad += not ok
            print(f"smoke {name} trace {trace}: {'ok' if ok else 'FAILED'}")
            if not ok:
                print(proc.stdout[-3000:], proc.stderr[-3000:])
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="default: the acceptance seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the smoke run")
    parser.add_argument("--smoke", action="store_true", help="every workload, tiny, both passes")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed is None:
        args.seed = ACCEPTANCE_SEEDS[args.workload]
    workload = WORKLOADS[args.workload]
    threads = workload.blas_threads or NPROC
    blas = OpenBlas()
    blas.set_threads(threads)
    print(json.dumps({"machine": machine_block(blas)}))
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            verdicts, metrics = measure_traced(args, workload, workdir, blas, threads)
        else:
            verdicts, metrics = measure_end_to_end(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report(args, verdicts, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
