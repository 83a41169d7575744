"""One workload process: set up, solve a closed loop of instances, report.

Started by run.py, once per measurement, so that no memo cache of the
program (partition._LEVEL_CACHE lives for the whole process) carries work
from one measurement into the next. Prints one JSON object on its last
stdout line.

    python3 perfbench/worker.py --workload NAME --seed S
        (--seconds T [--trace | --setup-only] | --record M)
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
TRACE_DIR = ROOT / ".bench_out"
# Stop starting solves this long after the first one, even with instances
# left, so a run on a machine far slower than expected ends within its limit.
HARD_CAP_S = 120.0

PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before NumPy is first imported."""
    for var in PINNED_THREADS:
        os.environ[var] = "1"
    os.environ.pop("FSGL_THREADS", None)


PROBE_EVERY_S = 0.05


def _probe_kernel() -> None:
    """A fixed ~0.5 ms of interpreter and tiny-array NumPy work.

    NumPy keeps the GIL for arrays this small (it drops it from 500
    elements), so while it runs the solve thread waits for the GIL
    instead of sharing the CPU with it.
    """
    import numpy as np

    acc: dict[int, float] = {}
    for i in range(3000):
        acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
    a = np.arange(64.0)
    for _ in range(50):
        a = np.sqrt(a * a + 1.0)


class SpeedProbe:
    """Samples how fast the host runs this process while the solves run.

    On a shared host a vCPU runs up to 2x slower while other guests load
    its core; the slow share switches within a tenth of a second and
    drifts over minutes, so two runs of one seed can differ by 20%. This
    pins the process to one CPU and, from a second thread, times
    _probe_kernel every PROBE_EVERY_S seconds on that CPU, about 1% of
    its time. The kernel calls nothing in fsgl: only the machine moves
    it. Its mean over the run, times the run's throughput, is a
    throughput that host load largely cancels out of (norm_steps_per_s).
    """

    def __init__(self):
        self.samples_ms: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._allowed = os.sched_getaffinity(0)

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            t0 = time.perf_counter()
            _probe_kernel()
            self.samples_ms.append((time.perf_counter() - t0) * 1e3)

    def __enter__(self):
        # The probe thread inherits the main thread's CPU, so it samples
        # the CPU the solves run on.
        os.sched_setaffinity(0, {max(self._allowed)})
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._allowed)
        return False

    def mean_ms(self) -> float:
        return statistics.fmean(self.samples_ms) if self.samples_ms else float("nan")


def environment() -> dict:
    """Versions of the numeric stack and the BLAS kernel picked at run time."""
    import ctypes
    import platform

    import numpy as np
    import scipy

    def blas(pkg_dir: Path, config: dict) -> str:
        dep = config["Build Dependencies"]["blas"]
        core = "unknown"
        for lib in sorted((pkg_dir.parent / f"{pkg_dir.name}.libs").glob("*openblas*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for sym in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                        "openblas_get_corename64_", "openblas_get_corename"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_char_p
                    core = fn().decode()
                    break
        return f"{dep.get('name')} {dep.get('version')} core={core}"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(Path(np.__file__).parent, np.__config__.CONFIG),
        "scipy_blas": blas(Path(scipy.__file__).parent, scipy.__config__.CONFIG),
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in PINNED_THREADS},
    }


def fingerprint(env: dict) -> dict:
    """The part of the environment that bitwise-identical traces depend on."""
    return {k: env[k] for k in ("numpy", "scipy", "numpy_blas", "scipy_blas")}


def load_expected(workload: str, seed: int, env: dict) -> tuple[list[str], str]:
    """Recorded digests for this workload, or none with the reason why."""
    if not DIGESTS.is_file():
        return [], "no digest file"
    rec = json.loads(DIGESTS.read_text())
    if seed != rec["seed"]:
        return [], f"digests are recorded for seed {rec['seed']} only"
    if fingerprint(env) != rec["environment"]:
        return [], "numeric stack differs from the one digests were recorded on"
    return rec["workloads"].get(workload, []), ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="size of the run: harness.instance_count instances, in order")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--record", type=int, default=0,
                    help="solve this many instances and rewrite their digests")
    args = ap.parse_args(argv)

    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import fsgl
    import harness

    if Path(fsgl.__file__).resolve().parent != ROOT / "src" / "fsgl":
        print(f"fsgl imported from {fsgl.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    name = args.workload
    if name not in harness.WORKLOADS:
        print(f"unknown workload {name!r}; choose from {sorted(harness.WORKLOADS)}",
              file=sys.stderr)
        return 2
    count = args.record or (harness.instance_count(name, args.seconds) if args.seconds > 0 else 0)
    if count < 1:
        print("give --seconds or --record", file=sys.stderr)
        return 2
    env = environment()
    expected, no_digest = load_expected(name, args.seed, env)

    # Set-up: generate every instance the run solves, then one small
    # warm-up solve on the same pipeline.
    t0 = time.perf_counter()
    pool = [harness.make_instance(name, args.seed, i) for i in range(count)]
    datagen_ms = (time.perf_counter() - t0) * 1e3
    harness.warm_up(name, args.seed)
    _probe_kernel()
    t_ready = time.monotonic()
    out = {"t_ready": t_ready, "env": env, "no_digest": no_digest, "datagen_ms": datagen_ms}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = harness.Tracer() if args.trace else None
    instrumented = harness.instrumented(tracer) if tracer else nullcontext()
    records = []
    t_first = time.monotonic()
    with instrumented, SpeedProbe() as probe:
        for i, inst in enumerate(pool):
            if time.monotonic() - t_first >= HARD_CAP_S:
                print(f"hard cap: stopped after {i} of {count} solves", file=sys.stderr)
                break
            want = None if args.record or i >= len(expected) else expected[i]
            records.append(harness.attempt(name, inst, want, tracer))
    out["probe_ms"] = probe.mean_ms()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["digests_checked"] = sum(1 for r in records if r["index"] < len(expected))

    steps = [r.pop("step_ms") for r in records if "step_ms" in r]
    steps = np.concatenate(steps) if steps else np.zeros(0)
    out["step_ms_p50"] = float(np.percentile(steps, 50)) if steps.size else 0.0
    out["step_ms_p99"] = float(np.percentile(steps, 99)) if steps.size else 0.0
    out["records"] = records
    out["partition_cache_entries"] = len(getattr(fsgl.partition, "_LEVEL_CACHE", ()))

    if tracer is not None:
        out["layers"] = harness.layer_summary(tracer)
        out["counts"] = dict(tracer.counts)
        out["spans"] = len(tracer.spans)
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{name}-seed{args.seed}.csv.gz"
        tracer.write(path)
        out["trace_file"] = str(path.relative_to(ROOT))

    if args.record:
        bad = [r for r in records if not r["ok"]]
        if bad:
            print(f"not recording: {len(bad)} solve(s) failed", file=sys.stderr)
            return 1
        rec = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        if rec.get("seed") != args.seed or rec.get("environment") != fingerprint(env):
            rec = {"seed": args.seed, "environment": fingerprint(env), "workloads": {}}
        rec["workloads"][name] = [r["digest"] for r in records]
        DIGESTS.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
