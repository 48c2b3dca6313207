#!/usr/bin/env python3
"""The epvf benchmark: end-to-end workloads plus a traced per-layer pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the `epvf` CLI, the
traced-pass program (perfbench_layers) and the speed calibration
(perfbench_calibrate) from the checkout's sources into .bench_build/ (or
$CARGO_TARGET_DIR). With --trace 0 it runs the workload's command cycle as
a single-threaded closed-loop client and reports the end-to-end metrics
(CPU times scaled to reference speed); with --trace 1 it replays the same
inputs in-process through perfbench_layers and reports the per-layer
metrics. Either way the last stdout line is one JSON object; a results
file (environment, command list, every sample) and, for traced runs, the
span dump are written under .bench_build/results/ (or --results-dir).

    python3 perfbench/run.py --write-refs     regenerate perfbench/refs.json
"""

import argparse
import hashlib
import json
import os
import re
import select
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing beside the sources

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
REFS = os.path.join(HERE, "refs.json")
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")

REQUEST_TIMEOUT_S = 120
WORKER_SAMPLE_S = 0.02
SETUP_REPEATS = 3
# Cycles keep going past --seconds until a run holds this many requests, so
# req_cpu_p90_ms has at least ten samples beyond it.
MIN_REQUESTS = 100
# CPU seconds perfbench_calibrate takes on the machine the bounds were set
# on (4-vCPU Xeon, KVM); see speed_scale().
REFERENCE_CALIBRATE_S = 0.125


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that must end the run without a result line."""


# --- build and environment ---------------------------------------------------

def build_root():
    return os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", ROOT)


def cmake_cache(build_dir):
    values = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line.strip())
            if m:
                values[m.group(1)] = m.group(2)
    return values


def build():
    """Configures and builds epvf, perfbench_layers and perfbench_calibrate
    (Release); returns their paths and the CMake cache."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no epvf sources next to perfbench/ (is this a full checkout?)")
    build_dir = os.path.join(build_root(), "cmake-release")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_root(), "build.log")
    jobs = str(os.cpu_count() or 1)
    # Configure every time, so an existing tree learns of targets added since.
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs, "--target", "epvf", "perfbench_layers",
              "perfbench_calibrate"]]
    with open(log_path, "w") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT) != 0:
                raise BenchError("build step failed: %s (log: %s)" % (" ".join(step), log_path))
    cache = cmake_cache(build_dir)
    epvf = os.path.join(build_dir, "epvf_tools", "epvf")
    tools = {name: os.path.join(build_dir, name)
             for name in ("perfbench_layers", "perfbench_calibrate")}
    return epvf, tools, cache


def refuse_unoptimized(cache):
    """Numbers from a Debug or sanitizer build are not published."""
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type in ("", "Debug"):
        raise BenchError("refusing to publish numbers from a %r build" % (build_type or "default"))
    flags = " ".join(cache.get(k, "") for k in
                     ("CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_" + build_type.upper(),
                      "CMAKE_EXE_LINKER_FLAGS"))
    if "-fsanitize" in flags or cache.get("EPVF_SANITIZE", "OFF").upper() in ("ON", "1", "TRUE"):
        raise BenchError("refusing to publish numbers from a sanitizer (EPVF_SANITIZE) build")


def source_commit():
    """HEAD of the repository this checkout is, or None when it is not one."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest():
    """sha256 over src/ and tools/ — identifies the code when there is no git."""
    h = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def environment(cache, args):
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "compiler": "%s (%s)" % (compiler, version),
        "cmake_build_type": cache.get("CMAKE_BUILD_TYPE"),
        "commit": source_commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def child_env():
    """The parent environment minus every EPVF_* knob, so commands run at
    their defaults, with TMPDIR inside the checkout (the daemon spools jobs
    under it)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("EPVF_")}
    env["TMPDIR"] = os.path.abspath(os.path.join(build_root(), "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def kill_group(proc):
    """Ends `proc` and everything it spawned (it leads its own process group)."""
    try:
        os.killpg(proc.pid, 9)
    except ProcessLookupError:
        pass
    proc.wait()


# --- references --------------------------------------------------------------

def load_refs():
    with open(REFS) as f:
        return json.load(f)["sha256"]


def check_output(command, stdout, refs):
    """None when `stdout` is the command's reference output, else why not."""
    golden = workloads.anchor_golden(command)
    if golden is not None:
        with open(os.path.join(GOLDEN_DIR, golden), "rb") as f:
            return None if f.read() == stdout else "differs from tests/golden/" + golden
    expected = refs.get(command)
    if expected is None:
        return "no reference digest"
    return None if hashlib.sha256(stdout).hexdigest() == expected else "digest mismatch"


# --- requests ----------------------------------------------------------------

class Result:
    """One request: its wall time, and the CPU time (user + system) the epvf
    processes spent on it."""

    def __init__(self, command, seconds, cpu_s, ok, why, stdout, maxrss_kb=0):
        self.command = command
        self.seconds = seconds
        self.cpu_s = cpu_s
        self.ok = ok
        self.why = why
        self.stdout = stdout
        self.maxrss_kb = maxrss_kb


def argv_for(command, ir_path):
    return [ir_path if w == workloads.IR_PLACEHOLDER else w for w in command.split()]


def run_cli(epvf, command, work, ir_path, stderr):
    """One cold CLI process, spawn to exit; CPU time and peak RSS from wait4."""
    argv = [os.path.abspath(epvf)] + argv_for(command, ir_path)
    env = child_env()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=work, env=env, stdout=subprocess.PIPE, stderr=stderr)
    timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    why = None if proc.returncode == 0 else "exit %d" % proc.returncode
    return Result(command, elapsed, usage.ru_utime + usage.ru_stime, why is None, why, stdout,
                  usage.ru_maxrss)


WIRE_MAGIC = 0x57565045
WIRE_VERSION = 1
FRAME_RUN, FRAME_SHUTDOWN = 1, 4
FRAME_ACK, FRAME_STDOUT, FRAME_DONE, FRAME_ERROR = 64, 65, 68, 69
ERROR_BUSY = 2


def send_frame(sock, frame_type, payload=b""):
    sock.sendall(struct.pack("<IIII", WIRE_MAGIC, WIRE_VERSION, frame_type, len(payload)) + payload)


def recv_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        data += chunk
    return data


def recv_frame(sock):
    magic, version, frame_type, length = struct.unpack("<IIII", recv_exact(sock, 16))
    if magic != WIRE_MAGIC or version != WIRE_VERSION:
        raise ConnectionError("bad frame header from the daemon")
    return frame_type, recv_exact(sock, length)


def run_request(daemon, command):
    """One `--connect` request over a fresh connection, send to terminal frame.
    While it waits for a frame, the daemon's worker processes are sampled
    for peak_rss_mb every WORKER_SAMPLE_S. Its CPU time is what the daemon
    (and the workers it reaped) spent between send and terminal frame."""
    args = [a.encode() for a in command.split()]
    payload = struct.pack("<II", 0, len(args))
    payload += b"".join(struct.pack("<Q", len(a)) + a for a in args)
    stdout = b""
    cpu_start = daemon.cpu_s()
    start = time.perf_counter()
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(REQUEST_TIMEOUT_S)
            sock.connect(daemon.sock_path)
            send_frame(sock, FRAME_RUN, payload)
            while True:
                if not select.select([sock], [], [], WORKER_SAMPLE_S)[0]:
                    daemon.sample_workers()
                    if time.perf_counter() - start > REQUEST_TIMEOUT_S:
                        raise TimeoutError("no reply in %d s" % REQUEST_TIMEOUT_S)
                    continue
                frame_type, body = recv_frame(sock)
                if frame_type == FRAME_STDOUT:
                    stdout += body
                elif frame_type == FRAME_DONE:
                    code = struct.unpack("<Q", body)[0]
                    why = None if code == 0 else "exit %d" % code
                    break
                elif frame_type == FRAME_ERROR:
                    code = struct.unpack("<I", body[:4])[0]
                    why = "busy" if code == ERROR_BUSY else "daemon error %d" % code
                    break
    except (OSError, ConnectionError, struct.error) as e:
        why = "transport: %s" % e
    elapsed = time.perf_counter() - start
    return Result(command, elapsed, daemon.cpu_s() - cpu_start, why is None, why, stdout)


def vm_hwm_kb(pid):
    """Peak resident set of a live process, from /proc."""
    with open("/proc/%s/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Daemon:
    """`epvf serve` with a private cache dir in the workload's work dir."""

    def __init__(self, epvf, work, log_file):
        self.sock_path = os.path.join(work, "serve.sock")
        cache = os.path.join(work, "serve-cache")
        shutil.rmtree(cache, ignore_errors=True)
        self.proc = subprocess.Popen(
            [os.path.abspath(epvf), "serve", "serve.sock", "--cache-dir", "serve-cache"],
            cwd=work, env=child_env(), stdout=subprocess.DEVNULL, stderr=log_file,
            start_new_session=True)
        self.worker_hwm_kb = 0
        self.last_cpu_s = 0.0
        deadline = time.monotonic() + 30
        while True:
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                    sock.connect(self.sock_path)
                return
            except OSError:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.stop()
                    raise BenchError("serve daemon did not come up")
                time.sleep(0.002)

    def sample_workers(self):
        """Folds the VmHWM of the daemon's live child processes (its campaign
        workers) into worker_hwm_kb."""
        for name in os.listdir("/proc"):
            if not name.isdigit():
                continue
            try:
                with open("/proc/%s/stat" % name, "rb") as f:
                    ppid = int(f.read().rsplit(b")", 1)[1].split()[1])
                if ppid == self.proc.pid:
                    self.worker_hwm_kb = max(self.worker_hwm_kb, vm_hwm_kb(name))
            except (OSError, ValueError, IndexError):
                pass  # the process ended meanwhile

    def cpu_s(self):
        """CPU seconds the daemon has used since it started: every thread's,
        exited ones too, read from its process CPU clock (nanoseconds), plus
        those of the child processes it has reaped (clock ticks). Once the
        daemon is gone, the last value read."""
        clock = ((~self.proc.pid) << 3) | 2  # the kernel's per-process CPU clock id
        try:
            with open("/proc/%d/stat" % self.proc.pid, "rb") as f:
                fields = f.read().rsplit(b")", 1)[1].split()
            children = (int(fields[13]) + int(fields[14])) / os.sysconf("SC_CLK_TCK")
            self.last_cpu_s = time.clock_gettime(clock) + children
        except OSError:
            pass
        return self.last_cpu_s

    def peak_rss_kb(self):
        """The daemon's own VmHWM, or a sampled worker's when that is larger."""
        return max(vm_hwm_kb(self.proc.pid), self.worker_hwm_kb)

    def stop(self):
        if self.proc.poll() is None:
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                    sock.settimeout(10)
                    sock.connect(self.sock_path)
                    send_frame(sock, FRAME_SHUTDOWN)
                    recv_frame(sock)
            except (OSError, ConnectionError, struct.error):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                kill_group(self.proc)


# --- the end-to-end run ------------------------------------------------------

def calibrate(tool):
    """CPU seconds perfbench_calibrate's fixed work takes right now."""
    proc = subprocess.Popen([os.path.abspath(tool)], stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError("perfbench_calibrate exited %d" % proc.returncode)
    return usage.ru_utime + usage.ru_stime


def speed_scale(calibrations):
    """The factor that brings a run's CPU times to reference speed.

    On a shared host the cores' speed drifts by up to a third over minutes,
    and every command's CPU time drifts with it. A run times the fixed
    calibration work before every set-up and cycle and after the last one,
    and scales its times by REFERENCE_CALIBRATE_S over the median of those.
    Over sixteen eight-cycle blocks of the analyze-cold cycle, this cut the
    blocks' CPU-time range from 0.22 to 0.15 of the median.
    """
    return REFERENCE_CALIBRATE_S / statistics.median(calibrations)


def prepare_work(workload, epvf):
    """Fresh work dir with the .ir target; returns (dir, ir path inside it)."""
    work = os.path.join(build_root(), "work", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ir = subprocess.run([os.path.abspath(epvf), "print", "mm"], capture_output=True,
                        env=child_env(), timeout=REQUEST_TIMEOUT_S)
    if ir.returncode != 0:
        raise BenchError("`epvf print mm` failed")
    with open(os.path.join(work, "mm.ir"), "wb") as f:
        f.write(ir.stdout)
    return work, "mm.ir"


def injections(stdout):
    m = re.search(rb"== campaign \((\d+) injections\) ==", stdout)
    return int(m.group(1)) if m else 0


def run_e2e(plan, epvf, calibrator, refs, seconds):
    work, ir_path = prepare_work(plan.workload, epvf)
    serving = plan.workload == "serve-warm"
    failures = []
    with open(os.path.join(work, "stderr.log"), "wb") as err:

        def execute(command, daemon):
            result = (run_request(daemon, command) if serving
                      else run_cli(epvf, command, work, ir_path, err))
            if result.ok:
                result.why = check_output(command, result.stdout, refs)
                result.ok = result.why is None
            if not result.ok:
                failures.append({"command": command, "why": result.why})
            return result

        # Set-up, several times: CLI workloads run one unmeasured pass over
        # the cycle; serve-warm starts a daemon and primes it. Each set-up's
        # cost is the CPU time of the epvf processes it ran.
        setups_cpu = []
        setups_wall = []
        calibrations = []
        daemon = None
        samples = []
        maxrss_kb = 0
        cycles = 0
        worker_kb = None
        try:
            for i in range(SETUP_REPEATS):
                calibrations.append(calibrate(calibrator))
                start = time.perf_counter()
                if serving:
                    if daemon is not None:
                        daemon.stop()
                    daemon = Daemon(epvf, work, err)
                    commands = plan.prime()
                else:
                    commands = plan.cycle(-1 - i)
                cpu = sum(execute(command, daemon).cpu_s for command in commands)
                setups_cpu.append(daemon.cpu_s() if serving else cpu)
                setups_wall.append(time.perf_counter() - start)
            setup_failures = len(failures)

            start = time.perf_counter()
            while True:
                elapsed = time.perf_counter() - start
                if cycles > 0 and elapsed >= seconds and \
                        len(samples) >= MIN_REQUESTS:
                    break
                commands = plan.cycle(cycles)
                if commands is None:
                    log("fresh-seed pool spent after %d cycles" % cycles)
                    break
                calibrations.append(calibrate(calibrator))
                for command in commands:
                    samples.append(execute(command, daemon))
                cycles += 1
            wall = time.perf_counter() - start
            calibrations.append(calibrate(calibrator))
            if serving:
                maxrss_kb = daemon.peak_rss_kb()
                worker_kb = daemon.worker_hwm_kb
        finally:
            if daemon is not None:
                daemon.stop()

    maxrss_kb = max([maxrss_kb] + [r.maxrss_kb for r in samples])
    attempted = len(samples)
    failed = sum(1 for r in samples if not r.ok)
    scale = speed_scale(calibrations)
    cpu_ms = [r.cpu_s * 1e3 for r in samples]
    cpu = sum(r.cpu_s for r in samples)
    wall_ms = [r.seconds * 1e3 for r in samples]
    injected = sum(injections(r.stdout) for r in samples if r.ok)
    metrics = {
        "setup_s": (statistics.median(setups_cpu) * scale, "s"),
        "req_cpu_p50_ms": (stats.hd_quantile(cpu_ms, 0.5) * scale, "ms"),
        "req_cpu_p90_ms": (stats.hd_quantile(cpu_ms, 0.9) * scale, "ms"),
        "req_per_cpu_s": (attempted / (cpu * scale), "1/s"),
        "peak_rss_mb": (maxrss_kb / 1024.0, "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    # Unscaled CPU and wall-clock figures, kept for reading (they move with
    # the host's speed and load, so no bound is set on them).
    details = {
        "calibrations_cpu_s": calibrations,
        "speed_scale": scale,
        "req_cpu_p50_ms_unscaled": stats.hd_quantile(cpu_ms, 0.5),
        "req_cpu_p90_ms_unscaled": stats.hd_quantile(cpu_ms, 0.9),
        "setup_runs_cpu_s": setups_cpu,
        "setup_runs_wall_s": setups_wall,
        "cycles": cycles,
        "requests": attempted,
        "wall_s": wall,
        "cpu_s": cpu,
        "req_wall_p50_ms": stats.hd_quantile(wall_ms, 0.5),
        "req_wall_p90_ms": stats.hd_quantile(wall_ms, 0.9),
        "req_per_s": attempted / wall,
        "injections": injected,
        "inject_per_s": injected / wall,
        "inject_per_cpu_s": injected / cpu,
        "failed_frac": failed / attempted,
        "worker_peak_rss_mb": None if worker_kb is None else worker_kb / 1024.0,
        "setup_failures": setup_failures,
        "failures": failures[:50],
        "samples": [{"command": r.command, "ms": r.seconds * 1e3, "cpu_ms": r.cpu_s * 1e3,
                     "ok": r.ok, "maxrss_kb": r.maxrss_kb} for r in samples],
    }
    correct = not failures
    return metrics, attempted, failed, correct, details


# --- the traced run ----------------------------------------------------------

def run_traced(plan, epvf, tool, refs, results_base):
    work, _ = prepare_work(plan.workload, epvf)
    lines = plan.traced()
    with open(os.path.join(work, "plan.txt"), "w") as f:
        for line in lines:
            f.write(line.replace(workloads.IR_PLACEHOLDER, os.path.join(work, "mm.ir")) + "\n")
    out_json = os.path.join(work, "layers.json")
    spans_json = results_base + "-spans.json"
    with open(os.path.join(work, "layers.log"), "wb") as err:
        proc = subprocess.Popen(
            [os.path.abspath(tool), "--plan", os.path.join(work, "plan.txt"), "--epvf", epvf,
             "--work", os.path.join(work, "pass"), "--out", out_json, "--spans", spans_json],
            cwd=ROOT, env=child_env(), stdout=err, stderr=err, start_new_session=True)
        try:
            code = proc.wait(timeout=150)
        except subprocess.TimeoutExpired:
            kill_group(proc)  # the pass's daemon too
            raise BenchError("perfbench_layers took over 150 s")
    if code != 0:
        with open(os.path.join(work, "layers.log")) as f:
            raise BenchError("perfbench_layers failed: " + f.read()[-2000:])

    # Every analyze report and daemon stdout of the spans-on pass is checked.
    failures = []
    attempted = 0
    for i, line in enumerate(lines):
        words = line.split()
        if words[0] == "probe":
            words = words[1:]
        if words[0] == "serve":
            words = words[1:]
        elif words[0] != "analyze":
            continue
        attempted += 1
        command = " ".join(words)
        with open(os.path.join(work, "pass", "on", "out-%d.txt" % i), "rb") as f:
            why = check_output(command, f.read(), refs)
        if why is not None:
            failures.append({"command": command, "why": why})

    with open(out_json) as f:
        raw = json.load(f)
    with open(spans_json) as f:
        spans = json.load(f)["spans"]
    return layers.compute(spans, raw), attempted, failures, lines


# --- refs --------------------------------------------------------------------

def write_refs(epvf):
    work, ir_path = prepare_work("refs", epvf)
    digests = {}
    commands = workloads.all_reference_commands()
    with open(os.path.join(work, "stderr.log"), "wb") as err:
        for i, command in enumerate(commands):
            result = run_cli(epvf, command, work, ir_path, err)
            if not result.ok:
                raise BenchError("%s: %s" % (command, result.why))
            digests[command] = hashlib.sha256(result.stdout).hexdigest()
            if i % 50 == 0:
                log("refs: %d/%d" % (i, len(commands)))
    with open(REFS, "w") as f:
        json.dump({"comment": "sha256 of each command's stdout at default flags, "
                              "written by `python3 perfbench/run.py --write-refs`",
                   "sha256": digests}, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote %d digests to %s" % (len(digests), os.path.relpath(REFS, ROOT)))


# --- main --------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir",
                        help="where results files go (default .bench_build/results); "
                             "bench_diff.py compares two such directories")
    parser.add_argument("--write-refs", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)

    try:
        epvf, tools, cache = build()
        epvf = os.path.relpath(epvf, ROOT)
        if args.write_refs:
            write_refs(epvf)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        refuse_unoptimized(cache)
        refs = load_refs()
        env = environment(cache, args)
        plan = workloads.Plan(args.workload, args.seed)
        results_dir = args.results_dir or os.path.join(build_root(), "results")
        os.makedirs(results_dir, exist_ok=True)
        base = os.path.join(results_dir, "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                                 args.trace))
        record = {"environment": env, "why": workloads.WORKLOADS[args.workload]}
        if args.trace:
            table, attempted, failures, lines = run_traced(
                plan, epvf, tools["perfbench_layers"], refs, base)
            metrics = {name: (row["value"], row["unit"]) for name, row in table["metrics"].items()}
            failed = len(failures)
            correct = not failures
            record.update(commands=lines, per_layer=table, failures=failures,
                          spans_file=os.path.relpath(base + "-spans.json", ROOT))
            print(layers.report(args.workload, table))
        else:
            metrics, attempted, failed, correct, details = run_e2e(
                plan, epvf, tools["perfbench_calibrate"], refs, args.seconds)
            record.update(commands={"setup": [plan.cycle(-1 - i) for i in range(SETUP_REPEATS)]
                                    if plan.workload != "serve-warm" else plan.prime(),
                                    "cycles": [plan.cycle(c) for c in range(details["cycles"])]},
                          **details)
        record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        record.update(correct=correct, attempted=attempted, failed=failed)
        with open(base + ".json", "w") as f:
            json.dump(record, f, indent=1)
        if not correct:
            log("output check failed: %s" % json.dumps(record.get("failures", [])[:5]))
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log("error: %s" % e)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
