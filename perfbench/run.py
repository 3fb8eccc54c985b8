#!/usr/bin/env python3
"""End-to-end benchmark of the TrillionG binaries.

Usage (from the repository root):

    python3 perfbench/run.py --workload skg-adj6-batch --seed 7 --seconds 20 --trace 0

The runner builds trilliong, trilliong-serve, trilliong-dist and the
in-process layer tracer (perfbench/tracer) from source into
.bench_build/, computes a reference digest for the seed's graph with a
batch run, then drives the workload's binaries as subprocesses for
--seconds seconds from this single-threaded process (one connection at
a time). Every operation's output is hashed and compared against the
reference; any mismatch counts as a failed operation.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of the traced run (see perfbench/README.md). The last line of
standard output is the JSON result.
"""

import argparse
import glob
import hashlib
import http.client
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
BENCH_FILE = os.path.join(ROOT, "BENCHMARK.json")

NPROC = len(os.sched_getaffinity(0))
POLL_S = 0.002
# Any single operation taking longer than this is killed and failed.
OP_TIMEOUT_S = 150

# Community spec of the traced run's community, erv and swarm layers:
# two power-of-two communities (NSKG intra blocks) and two odd-sized
# ones, so the diagonal-heavy 4x4 layout holds 2 AVS blocks and 14 ERV
# blocks.
COMMUNITY_SIZES = [131072, 131072, 98304, 150000]
COMMUNITY_MIXING = [[8, 1, 1, 1], [1, 8, 1, 1], [1, 1, 8, 1], [1, 1, 1, 8]]

# Flat graph of each workload (the tracer reuses it): scale, noise, format.
FLAT = {
    "skg-adj6-batch": (20, 0.0, "adj6"),
    "nskg-tsv-store": (19, 0.1, "tsv"),
    "skg-adj6-serve": (20, 0.0, "adj6"),
}


# Warm operations are short (a store copy), so each cold operation is
# followed by this many of them to give warm_s as many samples as the
# cold metrics.
WARM_PER_COLD = 4


class BenchError(Exception):
    """A failure of the benchmark itself (build, set-up): no result."""


class OpFailed(Exception):
    """One operation produced wrong output or exited non-zero."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build


def go_env():
    env = dict(os.environ)
    env["GOCACHE"] = os.path.join(BUILD, "gocache")
    env["GOTMPDIR"] = os.path.join(BUILD, "gotmp")
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    env["GOWORK"] = "off"
    os.makedirs(env["GOCACHE"], exist_ok=True)
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    return env


def build():
    env = go_env()
    os.makedirs(BIN, exist_ok=True)
    steps = [
        (ROOT, ["go", "build", "-o", BIN + os.sep,
                "./cmd/trilliong", "./cmd/trilliong-serve", "./cmd/trilliong-dist"]),
        (os.path.join(HERE, "tracer"), ["go", "build", "-o", os.path.join(BIN, "perfbench-tracer"), "."]),
    ]
    for cwd, cmd in steps:
        p = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=840)
        if p.returncode != 0:
            raise BenchError("build failed: %s\n%s" % (" ".join(cmd), p.stdout))
    v = subprocess.run(["go", "version"], env=env, stdout=subprocess.PIPE, text=True)
    return v.stdout.strip()


def binpath(name):
    return os.path.join(BIN, name)


# ------------------------------------------------------------ processes


def child_env():
    env = dict(os.environ)
    env["GOMAXPROCS"] = str(NPROC)
    env.pop("TRILLIONG_FAULTPOINTS", None)
    return env


class Proc:
    """A child process whose resource usage is collected with wait4."""

    def __init__(self, args, logpath):
        self.args = args
        self.logpath = logpath
        self.logf = open(logpath, "wb")
        self.start = time.perf_counter()
        self.p = subprocess.Popen(args, stdout=self.logf, stderr=subprocess.STDOUT,
                                  env=child_env(), cwd=ROOT)
        self.end = None
        self.status = None
        self.rusage = None

    def poll(self):
        if self.end is not None:
            return True
        pid, status, ru = os.wait4(self.p.pid, os.WNOHANG)
        if pid == 0:
            return False
        self._done(status, ru)
        return True

    def wait(self, timeout):
        """Blocks until exit; kills the process after timeout seconds."""
        if self.end is not None:
            return
        fired = threading.Event()

        def expire():
            fired.set()
            self.p.kill()

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            _, status, ru = os.wait4(self.p.pid, 0)
        finally:
            timer.cancel()
        self._done(status, ru)
        if fired.is_set():
            raise OpFailed("%s timed out" % os.path.basename(self.args[0]))

    def _done(self, status, ru):
        self.end = time.perf_counter()
        self.status = os.waitstatus_to_exitcode(status)
        self.p.returncode = self.status
        self.rusage = ru
        self.logf.close()

    def kill(self, sig=signal.SIGKILL):
        if self.end is not None:
            return
        try:
            self.p.send_signal(sig)
        except ProcessLookupError:
            pass
        _, status, ru = os.wait4(self.p.pid, 0)
        self._done(status, ru)

    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    def rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux

    def output(self):
        with open(self.logpath, "r", errors="replace") as f:
            return f.read()

    def check_exit(self):
        if self.status != 0:
            raise OpFailed("%s exited %s: %s" % (os.path.basename(self.args[0]), self.status,
                                                 self.output()[-400:]))


def part_published(d):
    """Whether a part file has been renamed into place in d."""
    try:
        with os.scandir(d) as it:
            return any(e.name.startswith("part-") and not e.name.endswith(".tmp") for e in it)
    except OSError:
        return False


def run_group(argvs, logs, watch_dir=None):
    """Runs processes together until all exit. While watch_dir is set,
    it is polled for the first part file published under its final
    name, the first output a reader can use; after that the runner
    blocks in wait4, so it takes no CPU from the processes under test.
    Returns (procs, wall_s, first_part_s)."""
    procs = [Proc(a, l) for a, l in zip(argvs, logs)]
    t0 = procs[0].start
    first = None
    while watch_dir is not None and not all(p.poll() for p in procs):
        if part_published(watch_dir):
            first = time.perf_counter() - t0
            break
        if time.perf_counter() - t0 > OP_TIMEOUT_S:
            break
        time.sleep(POLL_S)
    for p in procs:
        p.wait(max(1.0, t0 + OP_TIMEOUT_S - time.perf_counter()))
    wall = max(p.end for p in procs) - t0
    for p in procs:
        p.check_exit()
    if watch_dir is not None and first is None:
        raise OpFailed("no part file was published in %s before exit" % watch_dir)
    return procs, wall, first


# ----------------------------------------------------------- parsing


_DUR = re.compile(r"([0-9.]+)(ns|µs|us|ms|s|m|h)")
_UNIT = {"ns": 1e-9, "µs": 1e-6, "us": 1e-6, "ms": 1e-3, "s": 1.0, "m": 60.0, "h": 3600.0}


def go_duration(text):
    """Parses a Go time.Duration string such as 1m2.5s or 767.285µs."""
    if text == "0s":
        return 0.0
    total, pos = 0.0, 0
    for m in _DUR.finditer(text):
        if m.start() != pos:
            break
        total += float(m.group(1)) * _UNIT[m.group(2)]
        pos = m.end()
    if pos != len(text):
        raise OpFailed("unparseable duration %r" % text)
    return total


def field(out, pattern):
    m = re.search(pattern, out, re.M)
    if not m:
        raise OpFailed("summary lacks %r:\n%s" % (pattern, out[-600:]))
    return m.groups()


def cli_summary(out):
    """Parses the trilliong batch CLI summary."""
    edges = int(field(out, r"^edges\s+(\d+) ")[0])
    plan = go_duration(field(out, r"^plan / generate\s+(\S+) / ")[0])
    m = re.search(r"^parts from cache (\d+)", out, re.M)
    return {"edges": edges, "plan_s": plan, "from_cache": int(m.group(1)) if m else 0}


def swarm_summary(out):
    """Parses one trilliong-dist -masterless worker summary."""
    return {
        "lost": int(field(out, r"^claimed\s+\d+ parts won, (\d+) publish races lost")[0]),
        "epochs": int(field(out, r"^epochs\s+(\d+) claim passes")[0]),
        "edges": int(field(out, r"^edges generated\s+(\d+) ")[0]),
    }


# ------------------------------------------------------------ outputs


def parts_digest(d, ext):
    """SHA-256 of the part files concatenated in part order, and their count."""
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(d, "part-*." + ext)))
    for path in files:
        with open(path, "rb") as f:
            while True:
                b = f.read(1 << 20)
                if not b:
                    break
                h.update(b)
    return h.hexdigest(), len(files)


def adj6_prefix_digest(path, scopes):
    """SHA-256 of the leading ADJ6 records of path whose source vertex is
    below scopes. A record is a 6-byte source, a 4-byte little-endian
    count and count 6-byte destinations."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while True:
            head = f.read(10)
            if len(head) < 10 or int.from_bytes(head[:6], "little") >= scopes:
                return h.hexdigest()
            body = f.read(6 * int.from_bytes(head[6:], "little"))
            h.update(head)
            h.update(body)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def check_digest(got, want, what):
    if got != want:
        raise OpFailed("%s: output digest %s differs from reference %s" % (what, got[:16], want[:16]))


# ------------------------------------------------------- measurement


class Samples:
    """Per-operation samples of each metric, plus the operation tally."""

    def __init__(self):
        self.values = {}
        self.attempted = 0
        self.failed = 0

    def add(self, name, value):
        self.values.setdefault(name, []).append(value)

    def op(self, fn, *args):
        """Runs one operation; any failure is counted, not raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except OpFailed as e:
            self.failed += 1
            log("operation failed: %s" % e)
            return None


class Ctx:
    """One run's settings and its work directory under .bench_build."""

    def __init__(self, workload, seed, seconds):
        self.seconds = seconds
        # The service maps master seed 0 to 1, so the runner offsets the
        # seed to keep every seed a distinct graph on every driver.
        self.master = seed % (1 << 63) + 1
        self.work = fresh_dir(os.path.join(BUILD, "work", "%s-%d" % (workload, os.getpid())))
        self.scale, self.noise, self.format = FLAT[workload]

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def flat_args(self, workers):
        return [binpath("trilliong"), "-scale", str(self.scale), "-noise", repr(self.noise),
                "-master", str(self.master), "-format", self.format, "-workers", str(workers)]

    def community_spec(self):
        path = self.path("community.json")
        with open(path, "w") as f:
            json.dump({"sizes": COMMUNITY_SIZES, "mixing": COMMUNITY_MIXING,
                       "noise": 0.1, "master_seed": self.master}, f)
        return path


def reference(ctx, args, prefix_scopes=0):
    """Set-up: a batch run whose output digest and edge count every
    operation of the run must reproduce. With prefix_scopes, it also
    records the digest of the ADJ6 bytes of scopes [0, prefix_scopes)."""
    out = fresh_dir(ctx.path("ref"))
    procs, _, _ = run_group([args + ["-out", out]], [ctx.path("ref.log")])
    ref = cli_summary(procs[0].output())
    ref["digest"], ref["parts"] = parts_digest(out, ctx.format)
    if prefix_scopes:
        ref["prefix_digest"] = adj6_prefix_digest(sorted(glob.glob(os.path.join(out, "part-*.adj6")))[0], prefix_scopes)
    shutil.rmtree(out)
    return ref


def cli_op(ctx, s, ref, args, cold):
    """One trilliong run into a fresh output dir. Cold runs generate
    (atomic part files with fsync); warm runs copy every part from a
    store that already holds the graph."""
    out = fresh_dir(ctx.path("out"))
    procs, wall, first = run_group([args + ["-out", out]], [ctx.path("op.log")], out if cold else None)
    p = procs[0]
    st = cli_summary(p.output())
    digest, _ = parts_digest(out, ctx.format)
    shutil.rmtree(out)
    check_digest(digest, ref["digest"], "trilliong")
    if cold and st["edges"] != ref["edges"]:
        raise OpFailed("edges %d, reference %d" % (st["edges"], ref["edges"]))
    if not cold and (st["edges"] != 0 or st["from_cache"] != ref["parts"]):
        raise OpFailed("warm run generated %d edges, %d/%d parts from cache"
                       % (st["edges"], st["from_cache"], ref["parts"]))
    s.add("setup_s", st["plan_s"])
    if cold:
        s.add("edges_per_s", ref["edges"] / wall)
        s.add("ttfb_s", first)
        s.add("cpu_ns_per_edge", p.cpu_s() * 1e9 / ref["edges"])
        s.add("peak_rss_mb", p.rss_mb())
    else:
        s.add("warm_s", wall)
    return True


def cold_then_warm(ctx, s, ref, cold_args, warm_args, fresh_store=None):
    """The measured loop of the CLI workloads: one cold run, then
    WARM_PER_COLD warm runs, until --seconds have passed. fresh_store,
    if set, is emptied before each cold run."""
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < ctx.seconds:
        if fresh_store:
            shutil.rmtree(fresh_store, ignore_errors=True)
        if s.op(cli_op, ctx, s, ref, cold_args, True):
            for _ in range(WARM_PER_COLD):
                s.op(cli_op, ctx, s, ref, warm_args, False)


def run_batch(ctx, s):
    # The reference run also fills the store the warm runs copy from.
    store = ctx.path("refstore")
    ref = reference(ctx, ctx.flat_args(2) + ["-store", store])
    cold_then_warm(ctx, s, ref, ctx.flat_args(2) + ["-resume"], ctx.flat_args(2) + ["-store", store])


def run_store(ctx, s):
    ref = reference(ctx, ctx.flat_args(2) + ["-resume"])
    store = ctx.path("store")
    args = ctx.flat_args(2) + ["-store", store]
    cold_then_warm(ctx, s, ref, args, args, fresh_store=store)


# ---------------------------------------------------------------- serve


def free_port():
    with socket.socket() as sk:
        sk.bind(("127.0.0.1", 0))
        return sk.getsockname()[1]


def start_server(ctx, name, extra):
    port = free_port()
    p = Proc([binpath("trilliong-serve"), "-addr", "127.0.0.1:%d" % port,
              "-max-streams", "1", "-drain-timeout", "5s"] + extra, ctx.path(name + ".log"))
    while True:
        if p.poll():
            raise OpFailed("trilliong-serve exited at start: %s" % p.output()[-400:])
        try:
            c = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            c.request("GET", "/readyz")
            ok = c.getresponse().status == 200
            c.close()
            if ok:
                return p, port, time.perf_counter() - p.start
        except OSError:
            pass
        if time.perf_counter() - p.start > 30:
            p.kill()
            raise OpFailed("trilliong-serve never became ready")
        time.sleep(POLL_S / 2)


def stop_server(p):
    p.kill(signal.SIGTERM)


def stream_job(ctx, port, hi=None):
    """POSTs the workload's job (scopes [0, hi) when hi is set) and
    streams it. Returns (wall_s from the POST, ttfb_s from the GET,
    digest, cache header, job status)."""
    spec = {"scale": ctx.scale, "master_seed": ctx.master, "format": ctx.format, "workers": 2}
    if ctx.noise:
        spec["noise"] = ctx.noise
    if hi is not None:
        spec["lo"], spec["hi"] = 0, hi
    c = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        t0 = time.perf_counter()
        c.request("POST", "/v1/jobs", body=json.dumps(spec), headers={"Content-Type": "application/json"})
        r = c.getresponse()
        body = r.read()
        if r.status != 201:
            raise OpFailed("POST /v1/jobs: %d %s" % (r.status, body[:200]))
        job = json.loads(body)
        t_get = time.perf_counter()
        c.request("GET", job["stream_url"])
        r = c.getresponse()
        if r.status != 200:
            raise OpFailed("GET stream: %d %s" % (r.status, r.read()[:200]))
        h = hashlib.sha256()
        b = r.read1(1 << 16)
        ttfb = time.perf_counter() - t_get
        while b:
            h.update(b)
            b = r.read(1 << 20)
        wall = time.perf_counter() - t0
        cache = r.getheader("X-Trilliong-Cache", "")
        c.request("GET", job["status_url"])
        r = c.getresponse()
        status = json.loads(r.read())
        return wall, ttfb, h.hexdigest(), cache, status
    except (OSError, http.client.HTTPException, ValueError) as e:
        raise OpFailed("stream: %s" % e)
    finally:
        c.close()


def serve_op(ctx, s, ref, port, cold, streamed):
    wall, ttfb, digest, cache, status = stream_job(ctx, port)
    check_digest(digest, ref["digest"], "stream")
    if status.get("state") != "done":
        raise OpFailed("job state %r" % status.get("state"))
    if cold:
        if status.get("edges_streamed") != ref["edges"]:
            raise OpFailed("streamed %s edges, reference %d" % (status.get("edges_streamed"), ref["edges"]))
        s.add("edges_per_s", ref["edges"] / wall)
        s.add("ttfb_s", ttfb)
        streamed.append(ref["edges"])
    else:
        if cache != "hit":
            raise OpFailed("warm stream X-Trilliong-Cache %r, want hit" % cache)
        s.add("warm_s", wall)


def probe_op(ctx, s, ref, port):
    """A short stream of the graph's first PROBE_SCOPES scopes, hub
    vertex 0 included: the same path to the first body byte as a full
    stream, at a tenth of a second per sample."""
    _, ttfb, digest, _, status = stream_job(ctx, port, PROBE_SCOPES)
    check_digest(digest, ref["prefix_digest"], "probe stream")
    if status.get("state") != "done":
        raise OpFailed("probe job state %r" % status.get("state"))
    s.add("ttfb_s", ttfb)


# Server launches measured per run for setup_s (launch to /readyz 200).
SERVE_LAUNCHES = 9
# ttfb_s probes per cold stream, each of the first PROBE_SCOPES scopes.
SERVE_PROBES = 4
PROBE_SCOPES = 4096


def run_serve(ctx, s):
    # One worker makes the reference run's single part the full-range
    # artifact the warm server's store hit needs; the bytes equal the
    # two-worker output by the determinism contract.
    store = ctx.path("refstore")
    ref = reference(ctx, ctx.flat_args(1) + ["-store", store], PROBE_SCOPES)
    for _ in range(SERVE_LAUNCHES - 2):
        p, _, ready = start_server(ctx, "launch", [])
        s.add("setup_s", ready)
        stop_server(p)
    servers = []
    streamed = []
    try:
        # Probes get a server of their own so the cold server's CPU and
        # RSS cover full streams only.
        for name, extra in (("cold", []), ("probe", []), ("warm", ["-store-dir", store])):
            p, port, ready = start_server(ctx, name, extra)
            servers.append((p, port))
            if not extra:
                s.add("setup_s", ready)
        (cold, cold_port), (_, probe_port), (_, warm_port) = servers
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < ctx.seconds:
            s.op(serve_op, ctx, s, ref, cold_port, True, streamed)
            for _ in range(SERVE_PROBES):
                s.op(probe_op, ctx, s, ref, probe_port)
            for _ in range(WARM_PER_COLD):
                s.op(serve_op, ctx, s, ref, warm_port, False, streamed)
    finally:
        for p, _ in servers:
            stop_server(p)
    if streamed:
        s.add("cpu_ns_per_edge", cold.cpu_s() * 1e9 / sum(streamed))
        s.add("peak_rss_mb", cold.rss_mb())


# ---------------------------------------------------------------- trace


def swarm_op(ctx, ref, spec):
    """Two masterless workers, one thread each, sharing one output dir.
    Returns their parsed summaries, processes and the job's wall time."""
    out = fresh_dir(ctx.path("out"))
    argvs, logs = [], []
    for wid in (1, 2):
        argvs.append([binpath("trilliong-dist"), "-masterless", "-community", spec, "-format", "adj6",
                      "-threads", "1", "-swarm-id", str(wid), "-out", out])
        logs.append(ctx.path("swarm%d.log" % wid))
    procs, wall, _ = run_group(argvs, logs)
    sums = [swarm_summary(p.output()) for p in procs]
    digest, nparts = parts_digest(out, "adj6")
    shutil.rmtree(out)
    check_digest(digest, ref["digest"], "swarm")
    if nparts != ref["parts"]:
        raise OpFailed("swarm published %d parts, reference %d" % (nparts, ref["parts"]))
    return sums, procs, wall


def run_trace(ctx, s):
    """The traced run: the tracer calls each layer's public functions
    in-process on the workload's graph and on the community spec; the
    swarm layer is measured from a real two-process swarm run checked
    against the tracer's community output."""
    spec = ctx.community_spec()
    tdir = fresh_dir(ctx.path("trace"))
    args = [binpath("perfbench-tracer"), "-scale", str(ctx.scale), "-noise", repr(ctx.noise),
            "-format", ctx.format, "-master", str(ctx.master), "-community", spec, "-dir", tdir]
    s.attempted += 1
    procs, _, _ = run_group([args], [ctx.path("tracer.log")])
    out = procs[0].output()
    try:
        traced = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise OpFailed("tracer printed no result: %s" % out[-600:])
    if traced["errors"]:
        s.failed += 1
        log("tracer check failed: %s" % "; ".join(traced["errors"]))
    for name, v in traced["metrics"].items():
        s.add(name, v)

    ref = {"digest": traced["community_digest"], "parts": traced["community_parts"]}
    res = s.op(swarm_op, ctx, ref, spec)
    if res:
        sums, procs, wall = res
        s.add("swarm.dup_edges_frac", sum(st["edges"] for st in sums) / traced["community_edges"] - 1)
        s.add("swarm.races_lost", sum(st["lost"] for st in sums))
        s.add("swarm.epochs", sum(st["epochs"] for st in sums))
        s.add("swarm.idle_frac", 1 - sum(p.cpu_s() for p in procs) / (len(procs) * wall))


WORKLOADS = {
    "skg-adj6-batch": run_batch,
    "nskg-tsv-store": run_store,
    "skg-adj6-serve": run_serve,
}


# --------------------------------------------------------------- report


def fs_type(path):
    """Filesystem type of the mount holding path, from /proc/self/mounts."""
    best, kind = "", "unknown"
    path = os.path.realpath(path)
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                parts = line.split()
                mnt = parts[1].replace("\\040", " ")
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) >= len(best):
                    best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_facts(go_version, work):
    return {
        "nproc": NPROC,
        "gomaxprocs": {b: NPROC for b in ("trilliong", "trilliong-serve", "trilliong-dist", "perfbench-tracer")},
        "go": go_version,
        "cpu": cpu_model(),
        "output_fs": fs_type(work),
        "note": "fsync and disk figures are those of output_fs as this host provides it, not of a device",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        with open(BENCH_FILE) as f:
            spec = json.load(f)
        go_version = build()
        ctx = Ctx(a.workload, a.seed, a.seconds)
        s = Samples()
        try:
            (run_trace if a.trace else WORKLOADS[a.workload])(ctx, s)
        finally:
            shutil.rmtree(ctx.work, ignore_errors=True)
    except (BenchError, OpFailed, OSError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1

    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    undeclared = sorted(set(s.values) - declared)
    if undeclared:
        log("perfbench: measured metrics missing from BENCHMARK.json: %s" % ", ".join(undeclared))
        s.failed += 1
    metrics, missing = {}, []
    for m in spec["per_layer"] if a.trace else spec["end_to_end"]:
        vals = s.values.get(m["name"])
        if not vals:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": statistics.median(vals), "unit": m["unit"]}
        print("%-34s %14.6g %-8s median of %d, range %.6g .. %.6g"
              % (m["name"], statistics.median(vals), m["unit"], len(vals), min(vals), max(vals)))
    if missing:
        log("perfbench: no samples for %s" % ", ".join(missing))
        s.failed += 1
    print("host " + json.dumps(host_facts(go_version, ctx.work)))
    print(json.dumps({
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
