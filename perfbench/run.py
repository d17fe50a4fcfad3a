"""susyq benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload {tables,verify,states} --seed N \
        --seconds S --trace {0,1}

Each op starts when the previous one has finished.  The program receives
only the generated inputs: CLI argv through ``susyq.cli.main``, or a grid and
parameters for ``susyq.verify_model``/``verify_pair``.  After set-up and a
warm-up at the smallest grid, the op list is cycled for ``--seconds``; every
output is checked outside the timed span.  Op times are scaled to the
reference host speed by a fixed kernel timed around each op
(``hostspeed.py``).  With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics; with ``--trace 1`` one untraced pass is
followed by traced passes and the per-layer metrics are printed instead.  Logs go to ``.perfbench_out/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import workloads  # noqa: E402  (standard library only)

SETUP_PROBES = 9
# numpy's import time on the reference host when it is quiet (see setup_seconds)
NUMPY_IMPORT_S = 0.10
REFERENCE_SEED = 1
REFERENCE_FILE = os.path.join(HERE, "reference_digests.json")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SUBCOMMANDS = ("potentials", "vacua", "verify", "gk", "bs-classify")
SUITES = (*workloads.VERIFY_SUITES, "user-pair")


def cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    os.environ.pop("SUSYQ_GRID_N", None)  # ops pass --grid-n; keep the environment clean
    return nproc


# ---------------------------------------------------------------------------
# environment record

def _lscpu_caches() -> dict:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=20).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    caches = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if "cache" in key.lower():
            caches[key.strip()] = value.strip()
    return caches


def simd_targets() -> list:
    """numpy's dispatched SIMD targets on this CPU; outputs of transcendental
    ufuncs may differ in the last bit between targets."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return []
    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


def environment(nproc: int, ops: list) -> dict:
    import numpy

    cpu = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in cpu:
                    cpu[key] = value.strip()
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "simd_targets": simd_targets(),
        "nproc": nproc,
        "thread_cap": {var: os.environ[var] for var in THREAD_VARS},
        "cpu_model": cpu.get("model name"),
        "cpuinfo_cache_size": cpu.get("cache size"),
        "lscpu_caches": _lscpu_caches(),
        "grid_L": workloads.GRID_L,
        "grid_sizes": sorted({op["n"] for op in ops}),
    }


# ---------------------------------------------------------------------------
# set-up

def setup_seconds(workload: str, seed: int) -> tuple:
    """Set-up time from fresh-interpreter probes (import plus model builds).

    numpy's own import is counted at ``NUMPY_IMPORT_S``: on the reference
    host the same files took 0.10-0.17 s to import for minutes at a time,
    which moved the median set-up time by up to 45 % between sets of runs,
    and no change to susyq can make numpy import faster.  Returns set-up
    seconds and the median measured numpy import time."""
    probe = os.path.join(HERE, "setup_probe.py")
    numpy_s, rest_s = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, probe, workload, str(seed)],
                              capture_output=True, text=True, timeout=120, check=True)
        numpy_part, rest = map(float, done.stdout.split()[-2:])
        numpy_s.append(numpy_part)
        rest_s.append(rest)
    return NUMPY_IMPORT_S + statistics.median(rest_s), statistics.median(numpy_s)


# ---------------------------------------------------------------------------
# ops

def library_call(op: dict) -> str:
    grid = f"susyq.Grid({workloads.GRID_L!r}, {op['n']})"
    src = op["source"]
    if op["kind"] == "verify_model":
        return f"susyq.verify_model({op['suite']!r}, grid={grid}" + "".join(
            f", {k}={v!r}" for k, v in src["bind"].items()) + ")"
    return f"susyq.verify_pair({src['wA']!r}, {src['wB']!r}, {src['bind']!r}, grid={grid})"


def repro(op: dict, outdir: str) -> str:
    """A command that reruns the op by hand from the checkout root."""
    if op["kind"] == "cli":
        return "PYTHONPATH=src python3 -m susyq " + shlex.join(op["argv"] + ["--out", outdir])
    return shlex.join(["env", "PYTHONPATH=src", "python3", "-c",
                       f"import susyq; print({library_call(op)}.all_pass())"])


class Bench:
    def __init__(self, ops, outroot, reference):
        self.ops = ops
        self.outroot = outroot
        self.reference = reference  # op index -> digests, or None
        self.first_digests = {}
        self.status = {}  # op index -> list of execution statuses
        self.log = open(os.path.join(outroot, "oplog.jsonl"), "w", encoding="utf-8")
        self.warmup_failures = 0

    def close(self):
        self.log.close()

    def opdir(self, phase, index):
        sub = "warmup" if phase == "warmup" else "ops"
        return os.path.join(self.outroot, sub, f"{index:03d}")

    def execute(self, op, index, phase, pass_no):
        import checks
        import susyq

        outdir = self.opdir(phase, index)
        os.makedirs(outdir, exist_ok=True)
        rec = {"phase": phase, "pass": pass_no, "index": index, "n": op["n"],
               "repro": repro(op, os.path.relpath(outdir, ROOT)), "problems": []}
        err = io.StringIO()
        suite, code = None, None
        grid = susyq.Grid(workloads.GRID_L, op["n"])
        # the CLI lists written paths on stdout, which must stay free for the result
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                if op["kind"] == "cli":
                    try:
                        code = susyq.cli.main(op["argv"] + ["--out", outdir])
                    except SystemExit as e:  # argparse rejects bad argv this way
                        code = e.code
                elif op["kind"] == "verify_model":
                    suite = susyq.verify_model(op["suite"], grid=grid, **op["source"]["bind"])
                else:
                    src = op["source"]
                    suite = susyq.verify_pair(src["wA"], src["wB"], src["bind"], grid=grid)
            except Exception as e:  # an op that raises is a failed op, not a crash
                rec["problems"].append(f"raised {type(e).__name__}: {e}")
            t1, c1 = time.perf_counter(), time.process_time()
        rec.update(latency_s=t1 - t0, cpu_s=c1 - c0)
        rec["stderr"] = err.getvalue()[-2000:]
        if op["kind"] == "cli":
            rec.update(argv=op["argv"], exit_code=code, expected_exit=op["expect_exit"])
            if code is not None and code != op["expect_exit"]:
                rec["problems"].append(f"exit code {code}, expected {op['expect_exit']}")
            rec["verdict"] = {0: "pass", 1: "fail"}.get(code, "error")
        elif suite is not None:
            verdict = checks.suite_verdict(op, suite)
            rec.update(call=library_call(op), verdict=verdict["verdict"],
                       failing_checks=verdict["failing_checks"],
                       known_defect=verdict["known_defect"], n_checks=verdict["n_checks"])
            rec["problems"] += verdict["problems"]
            with open(os.path.join(outdir, "verify.json"), "w", encoding="utf-8") as fh:
                fh.write(json.dumps(suite.payload(), indent=2, sort_keys=True) + "\n")
        if phase != "warmup" and not rec["problems"]:
            rec["problems"] += self._digest_problems(index, checks.digests(outdir))
        if rec["problems"]:
            rec["status"] = "failed"
        elif rec.get("known_defect"):
            rec["status"] = "known-defect"
        else:
            rec["status"] = "ok"
        if phase == "warmup":
            self.warmup_failures += rec["status"] == "failed"
        else:
            self.status.setdefault(index, []).append(rec["status"])
        self.log.write(json.dumps(rec) + "\n")
        return rec

    def _digest_problems(self, index, got) -> list:
        first = self.first_digests.setdefault(index, got)
        if got != first:
            return ["output bytes differ from the op's first execution"]
        if self.reference is not None and len(self.status.get(index, [])) == 0:
            want = self.reference.get(str(index))
            if want != got:
                return [f"digests differ from the reference for seed {REFERENCE_SEED}"]
        return []

    def measure(self, seconds, phase, whole_passes):
        """Cycle the op list; returns per-op samples and the number of passes.

        ``whole_passes`` runs complete passes until ``seconds`` have elapsed;
        otherwise a new op starts only while time remains after the first
        full pass.  Later passes take the ops slowest first, so that the
        partial last pass adds samples where a single sample weighs most.
        The host-speed kernel is timed before the first op and after every
        op (``hostspeed.py``).
        """
        n = len(self.ops)
        samples = {key: [[] for _ in range(n)] for key in ("lat", "cpu", "lat_ref", "cpu_ref")}
        cals = [hostspeed.calibrate()]
        start = time.perf_counter()
        passes = 0
        while True:
            order = range(n) if passes == 0 else sorted(
                range(n), key=lambda i: -statistics.median(samples["lat"][i]))
            for i in order:
                if not whole_passes and passes and time.perf_counter() - start >= seconds:
                    break
                rec = self.execute(self.ops[i], i, phase, passes)
                cals.append(hostspeed.calibrate())
                # scale by the kernel's mean time just before and after the op
                wall_cal = (cals[-2][0] + cals[-1][0]) / 2
                cpu_cal = (cals[-2][1] + cals[-1][1]) / 2
                samples["lat"][i].append(rec["latency_s"])
                samples["cpu"][i].append(rec["cpu_s"])
                samples["lat_ref"][i].append(rec["latency_s"] * hostspeed.REFERENCE_S / wall_cal)
                samples["cpu_ref"][i].append(rec["cpu_s"] * hostspeed.REFERENCE_S / cpu_cal)
            else:
                passes += 1
                if time.perf_counter() - start < seconds:
                    continue
            samples["calibration_s"] = [c[0] for c in cals]
            return samples, passes

    def file_checks(self) -> dict:
        """Deferred content checks on each op's files (identical across its
        executions by digest).  Returns per-pass bytes and rows written."""
        import checks

        written = {"bytes": 0, "rows": 0}
        for i, op in enumerate(self.ops):
            if op["kind"] != "cli":
                continue
            outdir = self.opdir("measure", i)
            try:
                problems, rows = checks.FILE_CHECKS[op["check"]](op, outdir)
            except Exception as e:  # malformed output fails the op, not the run
                problems, rows = [f"output check raised {type(e).__name__}: {e}"], 0
            written["rows"] += rows
            written["bytes"] += sum(os.path.getsize(os.path.join(outdir, f))
                                    for f in os.listdir(outdir))
            if problems:
                self.log.write(json.dumps({"phase": "check", "index": i,
                                           "problems": problems}) + "\n")
                self.status[i] = ["failed"] * len(self.status[i])
        return written

    def counts(self):
        statuses = [s for per_op in self.status.values() for s in per_op]
        failed = sum(s == "failed" for s in statuses)
        passed_ops = sum(1 for per_op in self.status.values()
                         if per_op and all(s == "ok" for s in per_op))
        return len(statuses), failed, passed_ops / len(self.ops)


def _median_sum(samples) -> float:
    return sum(statistics.median(s) for s in samples)


def load_reference(workload, seed, env):
    """Committed digests for the reference seed, when comparable here."""
    if seed != REFERENCE_SEED:
        return None, "not the reference seed"
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        ref = json.load(fh)
    if (ref["numpy"], ref["simd_targets"]) != (env["numpy"], env["simd_targets"]):
        return None, (f"reference digests were made with numpy {ref['numpy']} on "
                      f"{ref['simd_targets']}; not comparable here")
    return ref["workloads"][workload], "checked"


def run(workload: str, seed: int, seconds: float, trace: bool, nproc: int,
        ops: list | None = None, reference: bool = True) -> dict:
    """One benchmark run; returns the result object.  ``ops`` replaces the
    seeded op list (the self-tests use a few ops); ``reference=False`` skips
    the committed digests (used when regenerating them)."""
    ops = workloads.op_list(workload, seed) if ops is None else ops
    outroot = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(outroot, ignore_errors=True)
    os.makedirs(outroot)

    import susyq.cli  # noqa: F401  (compiles the package before the set-up probes)

    env = environment(nproc, ops)
    ref, ref_note = load_reference(workload, seed, env) if reference else (None, "skipped")
    env["reference_digests"] = ref_note
    with open(os.path.join(outroot, "env.json"), "w", encoding="utf-8") as fh:
        json.dump(env, fh, indent=2)

    setup_s, numpy_import_s = (None, None) if trace else setup_seconds(workload, seed)
    hostspeed.kernel()  # the first call allocates; keep that out of the calibration
    bench = Bench(ops, outroot, ref)
    try:
        for i, op in enumerate(workloads.warmup_ops(ops)):
            bench.execute(op, i, "warmup", 0)
        if not trace:
            samples, passes = bench.measure(seconds, "measure", whole_passes=False)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            written = bench.file_checks()
        else:
            import tracer

            untraced, _ = bench.measure(0, "measure", whole_passes=True)
            t = tracer.Tracer()
            t.install()
            try:
                traced, passes = bench.measure(seconds, "traced", whole_passes=True)
            finally:
                t.uninstall()
            t.write(os.path.join(outroot, "spans.json"))
            written = bench.file_checks()
        attempted, failed, pass_frac = bench.counts()
        digests = {str(i): d for i, d in bench.first_digests.items()}
    finally:
        bench.close()
    with open(os.path.join(outroot, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
    shutil.rmtree(os.path.join(outroot, "ops"), ignore_errors=True)
    shutil.rmtree(os.path.join(outroot, "warmup"), ignore_errors=True)

    extra = {}
    if trace:
        metrics = tracer.per_layer(
            t, passes, _median_sum(traced["lat"]), _median_sum(untraced["lat"]),
            SUITES, SUBCOMMANDS, written)
        units = {name: tracer.unit_of(name) for name in metrics}
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": _median_sum(samples["lat_ref"]),
            "cpu_s": _median_sum(samples["cpu_ref"]),
            "peak_rss_mb": peak_mb,
            "pass_frac": pass_frac,
        }
        units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                 "pass_frac": "ratio"}
        # measured figures that the metrics scale or replace, for reading alongside
        extra = {"measured_numpy_import_s": numpy_import_s,
                 "unscaled_wall_s": _median_sum(samples["lat"]),
                 "unscaled_cpu_s": _median_sum(samples["cpu"]),
                 "calibration_s": samples["calibration_s"]}
    correct = failed == 0 and bench.warmup_failures == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with open(os.path.join(outroot, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "passes": passes, **result, **extra},
                  fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "susyq", "__init__.py")):
        print(f"perfbench: no susyq package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, SRC)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), nproc)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
