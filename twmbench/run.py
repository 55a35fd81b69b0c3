#!/usr/bin/env python3
"""The twm benchmark: four campaign workloads timed through the shipped
binaries, plus a traced per-layer run.

    python3 twmbench/run.py --workload mid-list --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it builds twm_cli, the traced driver
(trace_driver.cpp) and the peak-RSS launcher (peak_rss.cpp) into
.bench_build/twmbench/ on first use (<$CARGO_TARGET_DIR>/twmbench/ when that
is set), then

  --trace 0   measures the end-to-end metrics for --seconds with tracing
              off: `twm_cli run` launches for the campaign workloads, a
              fresh `twm_cli serve` plus two closed-loop loopback clients for
              service-replay;
  --trace 1   runs the workload through the traced driver and through a
              fresh daemon, times the driver against untraced runs, and
              reports the per-layer metrics; the span file lands in
              .bench_build/twmbench/trace/.

Every run checks verdicts: all unit records must hash to one digest, and at
the default seed (or on the seed-invariant workloads) the digest and the
per-cell detected counts must equal expected.json.  The last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}; a human
summary with the host/build fingerprint goes to stderr.  The exit code is 0
only when every check passed.  See README.md for the metric definitions.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the source tree

from stats import line_digest, percentile, unit_verdicts, verdict_digest  # noqa: E402
from workloads import WORKLOADS, threads  # noqa: E402

ROOT = os.path.dirname(HERE)
# A subdirectory of its own: the target directory may be shared.
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "twmbench")
TWM_CLI = os.path.join(BUILD, "twm_cli")
TWM_TRACE = os.path.join(BUILD, "twm_trace")
PEAK_RSS = os.path.join(BUILD, "peak_rss")
EXPECTED = os.path.join(HERE, "expected.json")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "faults_per_s": "faults/s",
    "latency_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "api.spec_parse_s": "s", "api.validate_s": "s", "api.fault_list_s": "s",
    "api.faults": "count", "core.plan_s": "s", "core.plans_built": "count",
    "analysis.collapse_s": "s", "analysis.collapse_ratio": "ratio",
    "analysis.run_s": "s", "analysis.first_unit_s": "s", "analysis.units": "count",
    "analysis.lane_occupancy": "ratio", "analysis.element_exec_frac": "ratio",
    "analysis.faults_simulated": "count", "analysis.region_s_max": "s",
    "analysis.region_penalty": "ratio", "analysis.run_s.w64": "s",
    "analysis.run_s.w256": "s", "analysis.run_s.w512": "s",
    "analysis.run_s.tiled4096": "s", "memsim.pages_peak": "count",
    "memsim.packed_pages_peak": "count", "memsim.page_allocs": "count",
    "api.run_campaign_s": "s", "api.sink_s": "s", "api.sink_records": "count",
    "api.overhead_s": "s", "api.replay_s": "s", "service.cache_lookup_s": "s",
    "service.cache_store_s": "s", "service.cache_hits": "count",
    "service.cache_misses": "count", "service.cold_submit_s": "s",
    "service.queue_wait_ms": "ms", "service.stream_ms": "ms",
    "service.replay_p50_ms": "ms", "service.replay_p90_ms": "ms",
    "trace_overhead_frac": "ratio", "host.nproc": "count", "host.simd_lanes": "count",
}

# Counters two identical analysis passes must agree on.  memsim.page_allocs
# is left out: with several workers it moves by a few between identical
# passes, depending on which worker's free-list serves a page.
EXACT_COUNTS = {
    "analysis.units", "analysis.lane_slots", "analysis.faults_simulated",
    "analysis.elements_total", "analysis.elements_executed", "memsim.pages_peak",
    "memsim.packed_pages_peak",
}

SETUP_LAUNCHES = 60  # launch-to-first-record samples per e2e run, at least
SETUP_BATCH = 4      # of them before each full campaign run, spread over the run
MIN_CLI_RUNS = 3     # full runs per e2e run, even past --seconds
SERVICE_CYCLES = 3   # fresh daemons per service e2e run
OVERHEAD_PAIRS = 7   # untraced/traced launch pairs behind trace_overhead_frac
CHILD_TIMEOUT = 150  # seconds before a hung child is killed
CAMPAIGN_END = b'{"type":"campaign_end"'


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---- build -------------------------------------------------------------------


def ensure_built():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"no twm sources next to {HERE}; run from a full checkout")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                raise BenchError(f"{BUILD} was configured for another source tree; "
                                 "remove it or set CARGO_TARGET_DIR elsewhere")
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(cache):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", BUILD, "--target", "twm_cli", "twm_trace", "peak_rss",
                  "-j", str(len(os.sched_getaffinity(0)))])
    with open(build_log, "a") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT) != 0:
                with open(build_log) as f:
                    log(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))


# ---- fingerprint -------------------------------------------------------------


def fingerprint():
    probe = json.loads(subprocess.check_output([TWM_CLI, "simd", "--json"]))
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            key, _, value = line.strip().partition("=")
            cache[key.split(":")[0]] = value
    compiler = subprocess.run([cache.get("CMAKE_CXX_COMPILER", "c++"), "--version"],
                              capture_output=True, text=True).stdout.split("\n")[0]
    rev = ""
    if os.path.exists(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
    tree = hashlib.sha1()
    for top in ("src", "tools", "twmbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns
            if "__pycache__" not in d)
        for name in files:
            tree.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                tree.update(f.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads(),
        "simd_best": probe["best"],
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "git_revision": rev or "none",
        "source_sha1": tree.hexdigest(),
    }


# ---- child processes ---------------------------------------------------------


LIVE = set()  # children not yet waited for


def spawn(argv, rss_path=None, **kwargs):
    """Popen in a session of its own (so killpg reaches the whole tree),
    under peak_rss when the child's peak RSS is wanted."""
    if rss_path:
        argv = [PEAK_RSS, rss_path, "--", *argv]
    proc = subprocess.Popen(argv, cwd=ROOT, start_new_session=True, **kwargs)
    LIVE.add(proc)
    return proc


def reap(proc):
    proc.wait()
    LIVE.discard(proc)


def kill_tree(proc, sig=signal.SIGTERM):
    """Signal the child's whole session.  SIGTERM lets peak_rss (which
    ignores it) reap the command it launched before exiting itself."""
    try:
        os.killpg(proc.pid, sig)
    except ProcessLookupError:
        pass


def on_signal(signum, frame):
    """Interrupted: take every child tree down with this process.  (Reaps
    with waitpid directly: the interrupted frame may hold Popen's lock.)"""
    for proc in list(LIVE):
        kill_tree(proc)
        for _ in range(50):
            try:
                if os.waitpid(proc.pid, os.WNOHANG)[0]:
                    break
            except ChildProcessError:
                break
            time.sleep(0.1)
        else:
            kill_tree(proc, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
    os._exit(128 + signum)


def read_rss_mb(path):
    with open(path) as f:
        kib = int(f.read())
    os.unlink(path)
    return kib / 1024.0


class Launch:
    """One child run to completion, with its own peak RSS, or stopped early.

    By default stdout goes to a file that is read after the child exits, so
    no reader competes with the campaign's threads for a CPU.  Given a
    `marker` or `stop`, it reads a pipe instead, to timestamp the first line
    and the first `marker`.  `stop` kills the child once the line holding
    `marker` (or, without one, the first line) has arrived; its RSS is then
    not taken."""

    def __init__(self, argv, marker=None, stop=False):
        watch = bool(marker or stop)
        work = os.path.join(BUILD, "work")
        out_path = os.path.join(work, f"stdout-{os.getpid()}.log")
        err_path = os.path.join(work, f"stderr-{os.getpid()}.log")
        rss_path = None if stop else os.path.join(work, f"rss-{os.getpid()}")
        self.t_first = self.t_marker = None
        self.t0 = time.perf_counter()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = spawn(argv, rss_path, stdout=subprocess.PIPE if watch else out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT, kill_tree, (proc,))
        timer.start()
        chunks, tail = [], b""
        while watch:
            chunk = os.read(proc.stdout.fileno(), 1 << 20)
            if not chunk:
                break
            now = time.perf_counter()
            if self.t_first is None and b"\n" in chunk:
                self.t_first = now
            if marker and self.t_marker is None and marker in tail + chunk:
                self.t_marker = now
            tail = chunk[-64:]
            chunks.append(chunk)
            # Records are written whole, one flush each, so a chunk that
            # ends a line ends the marker's line too.
            if stop and (self.t_marker if marker else self.t_first) and chunk.endswith(b"\n"):
                kill_tree(proc)
                stop = False
        reap(proc)
        self.t_end = time.perf_counter()
        timer.cancel()
        self.returncode = proc.returncode
        if watch:
            proc.stdout.close()
        self.rss_mb = read_rss_mb(rss_path) if rss_path and self.returncode == 0 else None
        with open(out_path, "rb") as f:
            self.stdout = b"".join(chunks) or f.read()
        with open(err_path, "rb") as f:
            self.stderr = f.read().decode(errors="replace")
        os.unlink(out_path)
        os.unlink(err_path)

    @property
    def setup_s(self):
        return None if self.t_first is None else self.t_first - self.t0

    @property
    def marker_s(self):
        return None if self.t_marker is None else self.t_marker - self.t0

    @property
    def wall_s(self):
        return self.t_end - self.t0


# ---- verdict checks ----------------------------------------------------------


class Verifier:
    """Holds the run's reference verdicts and records every disagreement."""

    def __init__(self, workload, seed):
        with open(EXPECTED) as f:
            expected = json.load(f)
        entry = expected["workloads"].get(workload)
        applies = entry and (entry["seed_invariant"] or seed == expected["default_seed"])
        self.expected = entry if applies else None
        self.digest = self.lines = self.cells = None
        self.errors = []

    def fail(self, what):
        if len(self.errors) < 20:
            self.errors.append(what)
        return False

    def reference(self, digest, cells, label):
        """Adopt (or compare with) the run's reference digest and cells."""
        if self.digest is None:
            self.digest, self.cells = digest, cells
            if self.expected and (digest, cells) != (self.expected["digest"],
                                                      self.expected["cells"]):
                return self.fail(f"{label}: verdicts differ from expected.json "
                                 f"({digest} vs {self.expected['digest']})")
            return True
        if digest != self.digest:
            return self.fail(f"{label}: digest {digest} != {self.digest}")
        if cells is not None and cells != self.cells:
            return self.fail(f"{label}: per-cell counts differ")
        return True

    def stream(self, buf, label):
        """A complete JSON-lines record stream (twm_cli run or a submit)."""
        end = buf.rfind(b'{"type":"campaign_end"')
        if not buf.startswith(b'{"type":"campaign_begin"') or end < 0:
            return self.fail(f"{label}: truncated record stream")
        begin = json.loads(buf[: buf.index(b"\n")])
        summary = json.loads(buf[end: buf.index(b"\n", end)])
        if summary["cancelled"] or summary["units"] != begin["total_faults"]:
            return self.fail(f"{label}: campaign incomplete")
        cells = [[c["scheme"], c["class"], c["total"], c["detected_all"], c["detected_any"]]
                 for c in summary["cells"]]
        lines = line_digest(buf)
        if self.lines is None or lines != self.lines:
            # Parse verdicts only when the cheap line fingerprint is new.
            if not self.reference(verdict_digest(unit_verdicts(buf)), cells, label):
                return False
            self.lines = lines
        return cells == self.cells or self.fail(f"{label}: per-cell counts differ")


def cli_run(spec_path, verifier, label, first_line_only=False, marker=None):
    run = Launch([TWM_CLI, "run", spec_path, "--sink", "jsonl"], marker=marker,
                 stop=first_line_only)
    if first_line_only:
        return run if run.setup_s is not None else None
    if run.returncode != 0:
        verifier.fail(f"{label}: twm_cli run exited {run.returncode}: {run.stderr[-500:]}")
        return None
    return run if verifier.stream(run.stdout, label) else None


def warm_up(spec_path):
    """About a second of the workload itself, untimed: a CPU left idle for a
    few seconds runs the next campaign up to 2x slower on this kind of host.
    run.deadline_ms cuts the campaign cleanly at an exact prefix."""
    Launch([TWM_CLI, "run", spec_path, "--sink", "jsonl", "--deadline-ms", "1000"])


# ---- service client ----------------------------------------------------------


class Daemon:
    """A fresh `twm_cli serve` on an ephemeral loopback port with an empty
    --cache-dir."""

    def __init__(self, cache_dir):
        shutil.rmtree(cache_dir, ignore_errors=True)
        self.cache_dir = cache_dir
        self.rss_path = cache_dir + ".rss"
        self.t0 = time.perf_counter()
        self.proc = spawn([TWM_CLI, "serve", "--port", "0", "--cache-dir", cache_dir],
                          self.rss_path, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        self.timer = threading.Timer(CHILD_TIMEOUT, kill_tree, (self.proc,))
        self.timer.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - self.t0
        if not line:
            self.stop()
            raise BenchError("twm_cli serve printed no serving line")
        self.port = json.loads(line)["port"]

    def stop(self):
        """Shut down over the protocol; returns the daemon's peak RSS (MB)."""
        try:
            with socket.create_connection(("127.0.0.1", self.port), timeout=30) as s:
                s.sendall(b'{"type":"shutdown"}\n')
                s.recv(4096)
        except (OSError, AttributeError):
            kill_tree(self.proc)
        reap(self.proc)
        self.timer.cancel()
        self.proc.stdout.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        if self.proc.returncode != 0:
            raise BenchError(f"twm_cli serve exited {self.proc.returncode}")
        return read_rss_mb(self.rss_path)


class Client:
    """One loopback connection; submit() runs one closed-loop request."""

    def __init__(self, port, spec):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=CHILD_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.frame = (json.dumps({"type": "submit", "spec": spec}) + "\n").encode()

    def submit(self):
        """-> (start, latency_s, queue_wait_s, stream bytes, stats dict)."""
        buf = bytearray()
        t_begin = None
        last = -1  # start of the frame that ends the exchange, once seen
        t0 = time.perf_counter()
        self.sock.sendall(self.frame)
        while True:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise BenchError("daemon closed the connection mid-stream")
            seen = max(0, len(buf) - 40)
            buf += chunk
            if t_begin is None and b"\n" in chunk:
                t_begin = time.perf_counter()
            if last < 0:
                last = max(buf.find(b'{"type":"campaign_stats"', seen),
                           buf.find(b'{"type":"error"', seen))
            if last >= 0 and buf.endswith(b"\n"):
                break
        t_end = time.perf_counter()
        stats = json.loads(bytes(buf[last:]))
        return t0, t_end - t0, t_begin - t0, bytes(buf), stats

    def close(self):
        self.sock.close()


def unit_section(buf):
    return buf[buf.index(b"\n") + 1: buf.rfind(b'{"type":"campaign_end"')]


class ServiceSession:
    """Cold submit on one connection, then both connections replay in a
    closed loop (each sends its next submit only after campaign_stats)."""

    def __init__(self, spec, verifier, cache_dir):
        self.spec, self.verifier = spec, verifier
        self.daemon = Daemon(cache_dir)
        self.clients = [Client(self.daemon.port, spec) for _ in range(2)]
        self.replays = []  # (start, latency_s, queue_wait_s)
        self.records = 0
        self.attempted = self.failed = 0

    def cold(self):
        self.attempted += 1
        start, latency, wait, buf, stats = self.clients[0].submit()
        ok = (stats.get("type") == "campaign_stats" and stats["simulated"] == stats["cells"]
              and self.verifier.stream(buf, "cold submit"))
        if not ok:
            self.failed += 1
            self.verifier.fail(f"cold submit: {stats}")
        self._unit_crc = zlib.crc32(unit_section(buf))
        return start, latency, wait

    def replay_for(self, seconds, min_each=1):
        lock = threading.Lock()
        deadline = time.perf_counter() + seconds

        def loop(client):
            done = 0
            while done < min_each or time.perf_counter() < deadline:
                try:
                    start, latency, wait, buf, stats = client.submit()
                except (BenchError, OSError, ValueError) as e:
                    with lock:
                        self.attempted += 1
                        self.failed += 1
                        self.verifier.fail(f"replay: {e}")
                    return
                ok = (stats.get("type") == "campaign_stats" and stats["simulated"] == 0
                      and stats["cached"] == stats["cells"]
                      and zlib.crc32(unit_section(buf)) == self._unit_crc)
                with lock:
                    self.attempted += 1
                    if ok:
                        self.replays.append((start, latency, wait))
                        self.records += stats["faults_replayed"]
                    else:
                        self.failed += 1
                        self.verifier.fail(f"replay differs from the cold stream: {stats}")
                done += 1

        t0 = time.perf_counter()
        workers = [threading.Thread(target=loop, args=(c,)) for c in self.clients]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        return time.perf_counter() - t0

    def close(self):
        for c in self.clients:
            c.close()
        return self.daemon.stop()


# ---- workloads: end to end ---------------------------------------------------


def e2e_cli(spec_path, seconds, verifier):
    setups, walls, rss = [], [], []
    attempted = failed = 0

    def setup_launches(n):
        nonlocal attempted, failed
        for _ in range(n):
            attempted += 1
            run = cli_run(spec_path, verifier, f"setup launch {attempted}", first_line_only=True)
            if run:
                setups.append(run.setup_s)
            else:
                failed += 1

    warm_up(spec_path)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(walls) < MIN_CLI_RUNS:
        setup_launches(SETUP_BATCH)
        attempted += 1
        run = cli_run(spec_path, verifier, f"run {attempted}")
        if not run:
            failed += 1
            if failed > 3:
                break
            continue
        walls.append(run.wall_s)
        rss.append(run.rss_mb)
    setup_launches(SETUP_LAUNCHES - len(setups))
    metrics = {}
    if walls:
        faults = sum(cell[2] for cell in verifier.cells)
        metrics = {
            "setup_s": statistics.median(setups),
            "faults_per_s": faults / statistics.median(walls),
            "latency_ms": statistics.median(walls) * 1e3,
            "peak_rss_mb": min(rss),
        }
    info = {"runs": len(walls), "setup_samples": len(setups), "wall_s": walls, "rss_mb": rss}
    return metrics, attempted, failed, info


def e2e_service(spec, spec_path, seconds, verifier):
    setups, colds, rss = [], [], []
    replays, records, replay_wall = [], 0, 0.0
    attempted = failed = 0
    cache_root = os.path.join(BUILD, "work", f"cache-{os.getpid()}")
    warm_up(spec_path)
    for cycle in range(SERVICE_CYCLES):
        for i in range(SETUP_LAUNCHES // SERVICE_CYCLES):
            attempted += 1
            d = Daemon(f"{cache_root}-setup{i}")
            setups.append(d.setup_s)
            d.stop()
        session = ServiceSession(spec, verifier, f"{cache_root}-{cycle}")
        setups.append(session.daemon.setup_s)
        colds.append(session.cold()[1])
        replay_wall += session.replay_for(seconds / SERVICE_CYCLES)
        rss.append(session.close())
        replays += session.replays
        records += session.records
        attempted += session.attempted + 1
        failed += session.failed
    latencies = [r[1] for r in replays]
    metrics = {}
    if latencies:
        metrics = {
            "setup_s": statistics.median(setups),
            "faults_per_s": records / replay_wall,
            "latency_ms": statistics.median(latencies) * 1e3,
            "peak_rss_mb": min(rss),
        }
    info = {
        "replays": len(latencies),
        "rss_mb": rss,
        "cold_submit_s": colds,
        "replay_p90_ms": percentile(latencies, 90) * 1e3 if latencies else None,
        "replays_per_s": len(latencies) / replay_wall if replay_wall else None,
        "failed_frac": failed / attempted,
    }
    return metrics, attempted, failed, info


# ---- workloads: traced -------------------------------------------------------


def traced(workload, seed, spec, spec_path, verifier):
    metrics, attempted, failed = {}, 0, 0
    trace_dir = os.path.join(BUILD, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    spans_path = os.path.join(trace_dir, f"{workload}-seed{seed}.driver.json")
    scratch = os.path.join(BUILD, "work", f"trace-{os.getpid()}")
    driver = [TWM_TRACE, spec_path, "--spans", spans_path, "--scratch", scratch]

    # 1. Tracing overhead: alternating untraced `twm_cli run` and traced
    # driver launches, each timed from launch to its campaign_end record.
    # The driver's traced run_campaign comes first and does the same work,
    # so the driver is stopped there.
    warm_up(spec_path)
    pairs = []
    for i in range(OVERHEAD_PAIRS):
        attempted += 2
        untraced = cli_run(spec_path, verifier, f"untraced run {i}", marker=CAMPAIGN_END)
        drv = Launch(driver, marker=CAMPAIGN_END, stop=True)
        if not untraced or drv.marker_s is None:
            verifier.fail(f"overhead pair {i}: no campaign_end record: {drv.stderr[-500:]}")
            return metrics, attempted, attempted, {}
        if not verifier.stream(drv.stdout, f"traced run_campaign stream {i}"):
            failed += 1
        pairs.append((untraced, drv))
    shutil.rmtree(scratch, ignore_errors=True)
    metrics["trace_overhead_frac"] = (statistics.median(d.marker_s for _, d in pairs)
                                      / statistics.median(u.marker_s for u, _ in pairs) - 1)

    # 2. Traced: the whole per-layer driver.
    attempted += 1
    drv = Launch(driver)
    shutil.rmtree(scratch, ignore_errors=True)
    if drv.returncode != 0:
        verifier.fail(f"twm_trace exited {drv.returncode}: {drv.stderr[-500:]}")
        return metrics, attempted, attempted, {}
    result = json.loads(drv.stdout.strip().split(b"\n")[-1])
    if not verifier.stream(drv.stdout, "traced run_campaign stream"):
        failed += 1
    for label, digest in sorted(result["digests"].items()):
        if not verifier.reference(digest, None, f"traced {label} pass"):
            failed += 1
    for name, (first, second) in sorted(result["repeat_counts"].items()):
        if first != second and name in EXACT_COUNTS:
            failed += 1
            verifier.fail(f"{name} differs between two identical passes: {first} vs {second}")
    metrics.update(result["metrics"])

    # 3. Service layer: a fresh daemon, one cold submit, then closed-loop
    # replays on two connections for a short window.
    session = ServiceSession(spec, verifier, os.path.join(BUILD, "work", f"cache-{os.getpid()}"))
    cold_start, cold, cold_wait = session.cold()
    session.replay_for(2.0, min_each=10)
    session.close()
    attempted += session.attempted
    failed += session.failed
    lat = [r[1] * 1e3 for r in session.replays]
    metrics.update({
        "service.cold_submit_s": cold,
        "service.queue_wait_ms": statistics.median([r[2] * 1e3 for r in session.replays]),
        "service.stream_ms": statistics.median([(r[1] - r[2]) * 1e3 for r in session.replays]),
        "service.replay_p50_ms": statistics.median(lat),
        "service.replay_p90_ms": percentile(lat, 90),
        "host.nproc": len(os.sched_getaffinity(0)),
        "host.simd_lanes": result["resolved_simd"],
    })

    # The span file: the driver's spans plus this process's view, on one
    # clock that starts at the first overhead launch.
    base = pairs[0][0].t0
    with open(spans_path) as f:
        events = json.load(f)["traceEvents"]
    for e in events:
        e["ts"] += (drv.t0 - base) * 1e6

    def event(name, pid, start, dur, **args):
        return {"name": name, "ph": "X", "pid": pid, "tid": 1, "ts": (start - base) * 1e6,
                "dur": dur * 1e6, "args": {"trace": spec["name"], **args}}

    for untraced, launched in pairs:
        events.append(event("twm_cli run -> campaign_end", 2, untraced.t0, untraced.marker_s))
        events.append(event("twm_trace -> campaign_end", 2, launched.t0, launched.marker_s))
    events.append(event("service.submit (cold)", 3, cold_start, cold,
                        queue_wait_ms=cold_wait * 1e3))
    events += [event("service.submit (replay)", 3, start, latency, queue_wait_ms=wait * 1e3)
               for start, latency, wait in session.replays]
    out_path = os.path.join(trace_dir, f"{workload}-seed{seed}.trace.json")
    with open(out_path, "w") as f:
        json.dump({"traceEvents": events}, f)
    os.unlink(spans_path)
    info = {"span_file": os.path.relpath(out_path, ROOT), "replays": len(lat),
            "digests": result["digests"], "repeat_counts": result["repeat_counts"]}
    return metrics, attempted, failed, info


# ---- main --------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-expected", action="store_true",
                    help="record this run's verdicts in expected.json (default seed only)")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    try:
        ensure_built()
    except BenchError as e:
        log(f"error: {e}")
        return 2

    make_spec, kind = WORKLOADS[args.workload]
    spec = make_spec(args.seed)
    os.makedirs(os.path.join(BUILD, "work"), exist_ok=True)
    spec_path = os.path.join(BUILD, "work", f"{args.workload}-seed{args.seed}.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f, indent=1)
    verifier = Verifier(args.workload, args.seed)
    if args.update_expected:
        with open(EXPECTED) as f:
            if args.seed != json.load(f)["default_seed"]:
                log("error: --update-expected records the default seed only")
                return 2
        verifier.expected = None

    try:
        if args.trace:
            metrics, attempted, failed, info = traced(
                args.workload, args.seed, spec, spec_path, verifier)
            units = PER_LAYER
        elif kind == "cli":
            metrics, attempted, failed, info = e2e_cli(spec_path, args.seconds, verifier)
            units = END_TO_END
        else:
            metrics, attempted, failed, info = e2e_service(spec, spec_path, args.seconds, verifier)
            units = END_TO_END
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1

    missing = sorted(set(units) - set(metrics))
    correct = not verifier.errors and not missing and failed == 0
    for err in verifier.errors:
        log(f"verdict check: {err}")
    if missing:
        log(f"missing metrics: {', '.join(missing)}")

    if args.update_expected and correct:
        with open(EXPECTED) as f:
            expected = json.load(f)
        expected["workloads"][args.workload] = {
            "seed_invariant": make_spec(args.seed) == make_spec(args.seed + 1),
            "digest": verifier.digest, "cells": verifier.cells}
        with open(EXPECTED, "w") as f:
            json.dump(expected, f, indent=1)
            f.write("\n")

    fp = fingerprint()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "fingerprint": fp, "digest": verifier.digest,
              "metrics": metrics, "info": info, "errors": verifier.errors}
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(report, f, indent=1)

    log(f"{args.workload} seed {args.seed} trace {args.trace}: digest {verifier.digest}, "
        f"{attempted} attempted, {failed} failed")
    log("host " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    for name in units:
        if name in metrics:
            log(f"  {name:28s} {metrics[name]:>16.6g} {units[name]}")
    for key, value in info.items():
        if key != "digests":
            log(f"  {key}: {value}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
