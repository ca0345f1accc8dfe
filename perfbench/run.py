"""skosconverter_ray benchmark: one workload per invocation.

    python3 perfbench/run.py --workload kg_build --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout. It builds its inputs from
``--seed``, starts Ray on ``nproc`` CPUs from this one driver process,
runs the workload's job in a closed loop (one job at a time) for
``--seconds``, checks every job's outputs outside the timed window, and
prints one JSON object as the last line of stdout. ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones. Workloads and metrics are described in
perfbench/README.md.

Exits non-zero without a result when the checkout holds no
``skosconverter_ray`` package.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Everything a run writes (inputs, outputs, Ray's session dir) goes
# here and is removed when the run ends.
RUN_DIR = os.path.join(ROOT, ".benchrun")

# One Ray session holds the driver, one raylet and a few workers; a
# small object store keeps the run's footprint modest on a shared host.
OBJECT_STORE_BYTES = 512 * 2**20
# Ray's Unix socket paths live under the temp dir and must stay below
# the kernel's 107-byte limit; this is the room the session adds.
_SOCKET_SUFFIX_LEN = len("/session_2026-01-01_00-00-00_000000_1234567"
                         "/sockets/plasma_store")
# Set-up is repeated this many times per untraced run; setup_s is the
# median.
SETUP_REPEATS = 3


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def nproc() -> int:
    """CPUs as GNU ``nproc`` counts them: the affinity mask, capped by
    OMP_NUM_THREADS and OMP_THREAD_LIMIT when set."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        v = os.environ.get(var, "").split(",")[0]
        if v.isdigit() and int(v) > 0:
            n = min(n, int(v))
    return n


# ---------------------------------------------------------------------------
# driver-side resource probes
# ---------------------------------------------------------------------------

def _status_mb(field: str) -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"/proc/self/status has no {field}")


def rss_mb() -> float:
    return _status_mb("VmRSS")


class RssPeak:
    """The driver's peak RSS over a block: the kernel's high-water mark
    (VmHWM), reset on entry through /proc/self/clear_refs, so each
    block gets its own peak with no sampling thread."""

    def __enter__(self):
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        self.start = rss_mb()
        return self

    def __exit__(self, *exc):
        self.peak = _status_mb("VmHWM")
        return False


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int) -> list[int]:
    kids, out, todo = _children_map(), [], [pid]
    while todo:
        for c in kids.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().split(") ")[-1][0] != "Z"
    except OSError:
        return False


def wait_gone(pids, timeout_s: float = 15.0) -> None:
    """Wait for ``pids`` to exit; SIGKILL whatever outlives the timeout."""
    deadline = time.monotonic() + timeout_s
    left = [p for p in pids if _alive(p)]
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = [p for p in left if _alive(p)]
    for p in left:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 5.0
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = [p for p in left if _alive(p)]


# ---------------------------------------------------------------------------
# Ray session
# ---------------------------------------------------------------------------

def _package_dir() -> str:
    """Runs on a worker: where it imports the package from."""
    import skosconverter_ray

    return os.path.dirname(skosconverter_ray.__file__)


class Session:
    """A local Ray cluster owned by this process."""

    def __init__(self, cpus: int):
        self.cpus = cpus
        self.temp_dir = RUN_DIR
        self._own_temp = None
        if len(self.temp_dir) + _SOCKET_SUFFIX_LEN > 107:
            # A deep checkout would overflow Ray's socket paths: fall
            # back to a short private dir, removed at exit.
            self._own_temp = tempfile.mkdtemp(prefix="pb")
            self.temp_dir = self._own_temp

    def start(self) -> float:
        """ray.init until a first package task returns on a worker."""
        t0 = time.perf_counter()
        import ray

        ray.init(address="local", num_cpus=self.cpus,
                 object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, _temp_dir=self.temp_dir)
        import ray.data as rd

        ctx = rd.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        got = ray.get(ray.remote(_package_dir).remote())
        want = os.path.join(ROOT, "skosconverter_ray")
        if os.path.realpath(got) != os.path.realpath(want):
            raise RuntimeError(f"workers import skosconverter_ray from "
                               f"{got}, not {want}")
        return time.perf_counter() - t0

    def stop(self) -> None:
        import ray

        pids = descendants(os.getpid())
        ray.shutdown()
        wait_gone(pids)

    def close(self) -> None:
        if self._own_temp:
            shutil.rmtree(self._own_temp, ignore_errors=True)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Runner:
    """Closed loop over one workload: jobs run one at a time; each
    job's outputs are checked after its timer stops."""

    def __init__(self, wl, work_dir: str):
        self.wl = wl
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _check(self, out) -> None:
        try:
            bad = self.wl.check(out)
        except Exception as e:  # a crashing check is a failed job
            bad = [f"check raised {type(e).__name__}: {e}"]
        if bad:
            self.failed += 1
            self.problems.extend(bad[:5])

    def job(self, trace=None) -> tuple[float, float]:
        """Run, time and check one job -> (seconds, peak driver RSS MB)."""
        self.attempted += 1
        out_dir = os.path.join(self.work_dir, f"job{self.attempted}")
        os.makedirs(out_dir)
        out = None
        with RssPeak() as rss:
            t0 = time.perf_counter()
            try:
                out = (self.wl.traced_job(out_dir, trace) if trace is not None
                       else self.wl.job(out_dir))
            except Exception as e:
                self.failed += 1
                self.problems.append(f"job raised {type(e).__name__}: {e}")
            dt = time.perf_counter() - t0
        if out is not None:
            self._check(out)
        shutil.rmtree(out_dir, ignore_errors=True)
        return dt, rss.peak

    def loop(self, seconds: float):
        """Jobs until ``seconds`` of job time have passed -> per-job
        (seconds, peaks)."""
        runs = []
        while sum(r[0] for r in runs) < seconds:
            runs.append(self.job())
        return tuple(map(list, zip(*runs)))


class Trace:
    """Spans the benchmark records around each public call. Spans "in
    the chain" are the calls that make up the job; the rest time extra
    calls made after it."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self.chain_s = 0.0  # sum of the chain's spans
        self.chain_start = self.chain_end = None

    @contextlib.contextmanager
    def span(self, name: str, *, in_chain: bool = True):
        t0 = time.perf_counter()
        yield
        t1 = time.perf_counter()
        key = name + ".s"
        self.values[key] = self.values.get(key, 0.0) + t1 - t0
        if in_chain:
            self.chain_s += t1 - t0
            if self.chain_start is None:
                self.chain_start = t0
            self.chain_end = t1

    def count(self, name: str, value: float) -> None:
        self.values[name] = value

    @contextlib.contextmanager
    def rss_delta(self, name: str):
        """Records the driver's peak RSS in the block minus its RSS on
        entry."""
        with RssPeak() as rss:
            yield
        self.values[name] = rss.peak - rss.start

    @property
    def chain_wall_s(self) -> float:
        """Wall time of the traced job, first chain span to last."""
        return self.chain_end - self.chain_start


def run(wl, args, bench: dict, import_s: float) -> dict:
    cpus = nproc()
    os.makedirs(RUN_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=RUN_DIR)
    session = Session(cpus)
    runner = Runner(wl, work_dir)
    try:
        setups = []
        for k in range(1 if args.trace else SETUP_REPEATS):
            if k:
                session.stop()
            setups.append(session.start())
        wl.make_inputs(args.seed, os.path.join(work_dir, "inputs"))
        # the first job in a session carries its cold cost: it is
        # checked, kept out of job_s, and charged to setup_s
        cold_s, cold_peak = runner.job()
        if args.trace:
            times, peaks = runner.loop(args.seconds / 2)
            trace = Trace()
            runner.job(trace)
        else:
            times, peaks = runner.loop(args.seconds)
    finally:
        try:
            session.stop()
        finally:
            session.close()
            shutil.rmtree(RUN_DIR, ignore_errors=True)

    job_s = statistics.median(times)
    # growth of the driver's peak RSS from one identical job to the next
    all_peaks = [cold_peak] + peaks
    growth = statistics.median(
        [b - a for a, b in zip(all_peaks, all_peaks[1:])])
    info = {"workload": wl.name, "seed": args.seed, "cpus": cpus,
            "jobs": len(times), "job_s_all": [round(t, 4) for t in times],
            "cold_job_s": round(cold_s, 4), "failed_ratio":
            runner.failed / runner.attempted,
            "rss_growth_mb_per_job": round(growth, 2), "problems":
            runner.problems[:10], **wl.info}
    if args.trace:
        values = dict(trace.values)
        traced_s = trace.chain_wall_s
        values["job.traced_s"] = traced_s
        values["job.trace_overhead_s"] = traced_s - job_s
        values["job.unattributed_s"] = job_s - trace.chain_s
        values["driver.rss_growth_mb_per_job"] = growth
        names = {m["name"]: m["unit"] for m in bench["per_layer"]}
        unknown = sorted(set(values) - set(names))
        if unknown:
            raise RuntimeError(f"per-layer names missing from "
                               f"BENCHMARK.json: {unknown}")
        # a layer this workload never calls reads 0
        metrics = {n: _metric(values.get(n, 0.0), u)
                   for n, u in names.items()}
    else:
        # time to a first result: imports, a Ray session, the cold job
        setup_s = import_s + statistics.median(setups) + cold_s
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "job_s": _metric(job_s, "s"),
            "items_per_s": _metric(wl.items / job_s, "items/s"),
            "peak_rss_mb": _metric(statistics.median(peaks), "MB"),
        }
        info["import_s"] = round(import_s, 4)
        info["setup_s_all"] = [round(s, 4) for s in setups]
        want = {m["name"] for m in bench["end_to_end"]}
        if want != set(metrics):
            raise RuntimeError(f"end-to-end metrics {sorted(metrics)} do "
                               f"not match BENCHMARK.json {sorted(want)}")
    print("# " + json.dumps(info), flush=True)
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "skosconverter_ray",
                                       "__init__.py")):
        return _fail(f"no skosconverter_ray package under {ROOT}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        return _fail(f"cannot read BENCHMARK.json: {e}")

    # Ray workers inherit the driver's environment: put the checkout on
    # their import path so they load this package, not another copy.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    sys.path.insert(0, ROOT)

    t0 = time.perf_counter()
    from perfbench import workloads  # imports ray and the package

    import_s = time.perf_counter() - t0

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(workloads.WORKLOADS)}")
    layer_names = {m["name"] for m in bench["per_layer"]}
    declared = set().union(*(w.LAYERS for w in workloads.WORKLOADS.values()))
    if declared - layer_names:
        return _fail(f"per-layer names missing from BENCHMARK.json: "
                     f"{sorted(declared - layer_names)}")
    wl = workloads.WORKLOADS[args.workload]()
    result = run(wl, args, bench, import_s)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
