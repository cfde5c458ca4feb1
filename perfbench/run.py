#!/usr/bin/env python3
"""perfbench: wall-clock benchmark of the gkgpu CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds gkgpu and the harness programs from the checkout (into
.bench_build/), generates the workload's inputs from the seed (cached in
.bench_build/data/ per workload and seed), then either

  --trace 0  times the built `gkgpu` binary the way a user runs it and
             prints every end-to-end metric, or
  --trace 1  replays the workload in-process with a span around each layer
             call, reads the program's own counters, writes a Chrome trace
             to .bench_build/traces/, and prints every per-layer metric.

Every run checks the program's output (see spec.json).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when every check passed.  Workloads, metrics and
the layer map are described in spec.json next to this file.
"""

import argparse
import hashlib
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import benchlib as bl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".bench_build")
BUILD = WORK / "cmake"
GKGPU = BUILD / "gkgpu" / "gkgpu"
TOOLS = {name: BUILD / f"perfbench_{name}" for name in ("gen", "client", "replay")}


class CheckFailed(Exception):
    """The program under test produced a wrong or missing output."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build --


def build(trace):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError("the gkgpu source tree is not in this checkout")
    WORK.mkdir(exist_ok=True)
    build_log = WORK / "build.log"
    with open(build_log, "ab") as out:
        if not (BUILD / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if _have("ninja") else []
            rc = subprocess.call(["cmake", "-S", str(HERE), "-B", str(BUILD),
                                  "-DCMAKE_BUILD_TYPE=Release", *gen],
                                 stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                raise RuntimeError(f"cmake configure failed; see {build_log}")
        targets = ["gkgpu_cli", "perfbench_gen", "perfbench_client"]
        if trace:
            targets.append("perfbench_replay")
        rc = subprocess.call(
            ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 2),
             "--target", *targets], stdout=out, stderr=subprocess.STDOUT)
        if rc != 0:
            raise RuntimeError(f"build failed; see {build_log}")


def _have(program):
    return any((Path(p) / program).is_file()
               for p in os.environ.get("PATH", "").split(os.pathsep) if p)


# ------------------------------------------------------------------- data --


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _cached(directory, key, make):
    """Runs make() into `directory` unless a previous run with the same key
    completed there."""
    marker = directory / "ready"
    if marker.is_file() and marker.read_text() == key:
        return
    if directory.exists():
        _rmtree(directory)
    directory.mkdir(parents=True)
    t0 = time.perf_counter()
    make()
    marker.write_text(key)
    log(f"generated {directory} in {time.perf_counter() - t0:.1f} s")


def prepare_data(name, wl, seed):
    """Generates (or reuses) the workload's reference and index (fixed per
    workload) and its reads for `seed`; returns (ref_dir, reads_dir).  The
    cache keys cover the generator parameters and the binaries that wrote
    the files, and only the latest seed of each workload is kept."""
    base = WORK / "data" / name
    ref = base / "ref"
    data = base / f"seed{seed}"
    ref_key = json.dumps({"genome": wl["genome"], "gkgpu": file_digest(GKGPU),
                          "perfbench_gen": file_digest(TOOLS["gen"])},
                         sort_keys=True)

    def make_ref():
        g = wl["genome"]
        _check_call([str(TOOLS["gen"]), "--kind", "genome", "--out", str(ref),
                     "--seed", str(g["seed"]), "--genome-bp",
                     str(g["genome-bp"]), "--chromosomes",
                     str(g["chromosomes"])])
        _check_call([str(GKGPU), "index", "--ref", str(ref / "ref.fa"),
                     "--out", str(ref / "ref.gki")])

    def make_reads():
        args = [str(TOOLS["gen"]), "--kind", wl["kind"], "--ref",
                str(ref / "ref.fa"), "--out", str(data), "--seed", str(seed)]
        for k, v in wl["reads"].items():
            args += [f"--{k}", str(v)]
        _check_call(args)
        if wl["kind"] == "jobs":
            for j in range(wl["reads"]["jobs"]):
                cmd = fill(wl["expect_command"], ref=ref,
                           reads=data / f"job_{j:03d}.fq",
                           sam=data / f"expect_{j:03d}.sam")
                _check_call([str(GKGPU), *cmd])

    _cached(ref, ref_key, make_ref)
    if base.is_dir():
        for old in base.iterdir():
            if old not in (ref, data):
                _rmtree(old)
    _cached(data, json.dumps({"reads": wl["reads"], "seed": seed,
                              "ref": ref_key}, sort_keys=True), make_reads)
    return ref, data


def _rmtree(path):
    if path.is_dir() and not path.is_symlink():
        for child in path.iterdir():
            _rmtree(child)
        path.rmdir()
    else:
        path.unlink()


def _check_call(args):
    rc = subprocess.call(args, stdout=subprocess.DEVNULL)
    if rc != 0:
        raise RuntimeError(f"{' '.join(args)} exited {rc}")


def fill(template, **values):
    return [t.format(**{k: str(v) for k, v in values.items()}) for t in template]


# --------------------------------------------------------------- children --


CHILD_TIMEOUT_S = 100  # a hung child is killed so the run still ends


def wait_child(proc, timeout=CHILD_TIMEOUT_S):
    """Reaps `proc` with wait4, killing it after `timeout` seconds; returns
    (exit code, peak RSS in MB, user+system CPU seconds)."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, ru.ru_maxrss / 1024.0, ru.ru_utime + ru.ru_stime


class Child:
    """One finished gkgpu process: exit code, wall seconds, peak RSS (MB),
    user+system CPU seconds, and its captured standard output."""

    def __init__(self, args, stdout_path=None):
        out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
        try:
            t0 = time.perf_counter()
            proc = subprocess.Popen(args, stdout=out, stderr=subprocess.DEVNULL)
            self.rc, self.rss_mb, self.cpu = wait_child(proc)
            self.wall = time.perf_counter() - t0
        finally:
            if stdout_path:
                out.close()
        self.stdout = Path(stdout_path).read_text() if stdout_path else ""


def map_commands(wl, ref, data, sam):
    """The workload's full command and its one-read (one-pair) twin."""
    if wl["kind"] == "paired":
        full = fill(wl["command"], ref=ref, r1=data / "r1.fq",
                    r2=data / "r2.fq", sam=sam)
        one = fill(wl["command"], ref=ref, r1=data / "one_1.fq",
                   r2=data / "one_2.fq", sam=sam.with_suffix(".one.sam"))
    else:
        full = fill(wl["command"], ref=ref, reads=data / "reads.fq", sam=sam)
        one = fill(wl["command"], ref=ref, reads=data / "one.fq",
                   sam=sam.with_suffix(".one.sam"))
    return [str(GKGPU), *full], [str(GKGPU), *one]


class Tally:
    """Attempted/failed operations and the checks that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


class SamChecker:
    """Checks a run's SAM: the first one is parsed against the truth, later
    ones must be byte-identical to it (the run is deterministic)."""

    @staticmethod
    def run(cmd, sam, stdout_path=None):
        """Runs a command that writes `sam`, removing any stale copy first
        so that a run which writes nothing cannot pass on old output."""
        sam.unlink(missing_ok=True)
        return Child(cmd, stdout_path)

    def __init__(self, truth, e):
        self.truth = truth
        self.e = e
        self.digest = None
        self.correct = 0

    def ok(self, path):
        try:
            digest = file_digest(path)
        except OSError:
            return False
        if self.digest is None:
            try:
                self.correct = bl.check_sam(path, self.truth, self.e)
            except bl.SamError as ex:
                log(f"SAM check failed: {ex}")
                return False
            self.digest = digest
            return True
        return digest == self.digest


# ---------------------------------------------------------- map workloads --


def setup_times(one_cmd, reps, tally):
    Child(one_cmd)  # warm the page cache and the dynamic loader
    walls = []
    for _ in range(reps):
        c = Child(one_cmd)
        if tally.record(c.rc == 0, f"one-read command exited {c.rc}"):
            walls.append(c.wall)
    if not walls:
        raise CheckFailed("every set-up command failed")
    return walls


def timed_map(name, wl, spec, ref, data, seconds, tally):
    truth = bl.read_truth(data / "truth.tsv")
    nreads = len(truth)
    sam = WORK / "run" / f"{name}.sam"
    sam.parent.mkdir(exist_ok=True)
    full, one = map_commands(wl, ref, data, sam)
    setups = setup_times(one, spec["setup_reps"], tally)
    checker = SamChecker(truth, spec["e"])
    # Untimed: fills the caches and gives the reference SAM.
    first = checker.run(full, sam)
    if not tally.record(first.rc == 0 and checker.ok(sam), "first full run"):
        raise CheckFailed(f"{name}: the full command failed its check")
    walls, rss, cpu = [], [], []
    deadline = time.perf_counter() + seconds
    runs = 0
    while runs < spec["min_reps"] or time.perf_counter() < deadline:
        runs += 1
        c = checker.run(full, sam)
        if tally.record(c.rc == 0 and checker.ok(sam),
                        f"run exited {c.rc} or its SAM changed"):
            walls.append(c.wall)
            rss.append(c.rss_mb)
            cpu.append(c.cpu)
    if not walls:
        raise CheckFailed(f"{name}: no timed run passed its check")
    wall = bl.median(walls)
    log(f"{name}: {len(walls)} timed runs, median {wall:.3f} s")
    return {
        "reads_per_s": nreads / wall,
        "setup_s": bl.median(setups),
        "job_p50_ms": wall * 1e3,
        "job_p95_ms": bl.quantile(walls, 0.95) * 1e3,
        "mapped_correct_pct": 100.0 * checker.correct / nreads,
        "peak_rss_mb": bl.median(rss),
        "cpu_s_per_mread": bl.median(cpu) / nreads * 1e6,
    }


# ------------------------------------------------------------------ serve --

K_STATS_REQUEST, K_DONE, K_ERROR = 4, 14, 13


class Daemon:
    """A `gkgpu serve` child.  start() returns the seconds from spawn until
    the socket accepts a connection; the readiness probe then completes a
    stats request so it does not count as a failed session."""

    def __init__(self, wl, ref, data):
        self.sock = data / "s.sock"
        self.args = [str(GKGPU), *fill(wl["command"], ref=ref,
                                       socket=self.sock)]
        self.proc = None
        self.log = open(WORK / "run" / "serve.log", "ab")

    def start(self):
        if self.sock.exists():
            self.sock.unlink()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(self.args, stdout=self.log,
                                     stderr=subprocess.STDOUT)
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(str(self.sock))
                ready = time.perf_counter() - t0
                _drain_stats(s)
                return ready
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None:
                    raise CheckFailed(f"serve exited {self.proc.returncode}")
                if time.perf_counter() - t0 > 60:
                    raise CheckFailed("serve did not accept within 60 s")
                time.sleep(0.0005)
            finally:
                s.close()

    def stop(self):
        """SIGTERM-drains the daemon; returns (exit code, RSS MB, CPU s)."""
        self.proc.send_signal(signal.SIGTERM)
        result = wait_child(self.proc, timeout=30)
        self.proc = None
        return result

    def close(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None
        self.log.close()


def _drain_stats(s):
    s.settimeout(30)
    s.sendall(struct.pack("<II", K_STATS_REQUEST, 0))
    buf = b""
    while True:
        while len(buf) < 8:
            chunk = s.recv(1 << 16)
            if not chunk:
                raise CheckFailed("serve closed the readiness probe early")
            buf += chunk
        ftype, length = struct.unpack("<II", buf[:8])
        while len(buf) < 8 + length:
            chunk = s.recv(1 << 16)
            if not chunk:
                raise CheckFailed("serve closed the readiness probe early")
            buf += chunk
        buf = buf[8 + length:]
        if ftype == K_ERROR:
            raise CheckFailed("serve answered the readiness probe with kError")
        if ftype == K_DONE:
            return


def serve_load(wl, data, seconds, daemon, tally):
    """Closed loop of perfbench_client connections; returns the job rows."""
    results = WORK / "run" / "client.tsv"
    cmd = [str(TOOLS["client"]), "--socket", str(daemon.sock), "--data",
           str(data), "--jobs", str(wl["reads"]["jobs"]), "--clients",
           str(wl["closed_loop_clients"]), "--seconds", str(seconds), "--out",
           str(results)]
    try:
        rc = subprocess.call(cmd, timeout=seconds + 60)
    except subprocess.TimeoutExpired:
        rc = "on timeout"
    if rc != 0:
        raise CheckFailed(f"perfbench_client exited {rc}")
    rows = []
    with open(results) as f:
        next(f)
        for line in f:
            c, j, start, end, ok, reads = line.split("\t")
            rows.append({"start": float(start), "end": float(end),
                         "ok": ok == "1", "reads": int(reads)})
    for r in rows:
        tally.record(r["ok"], "a served job threw or its SAM differed from "
                              "gkgpu pipeline")
    return rows


def served_correct_pct(wl, spec, data):
    """The served SAM of each job is byte-identical to its expect file
    (the client checks), so correctness is scored on the expect files."""
    truth = bl.read_truth(data / "truth.tsv")
    correct = 0
    for j in range(wl["reads"]["jobs"]):
        correct += bl.check_sam(data / f"expect_{j:03d}.sam", truth,
                                spec["e"])
    return 100.0 * correct / len(truth)


def timed_serve(name, wl, spec, ref, data, seconds, tally):
    (WORK / "run").mkdir(exist_ok=True)
    daemon = Daemon(wl, ref, data)
    try:
        setups = []
        for i in range(spec["setup_reps"]):
            setups.append(daemon.start())
            tally.record(True, "")
            if i + 1 < spec["setup_reps"]:
                rc, _, _ = daemon.stop()
                tally.record(rc == 0, f"serve exited {rc} on SIGTERM")
        rows = serve_load(wl, data, seconds, daemon, tally)
        rc, rss_mb, cpu = daemon.stop()
        tally.record(rc == 0, f"serve exited {rc} on SIGTERM")
    finally:
        daemon.close()
    done = [r for r in rows if r["ok"]]
    if not done:
        raise CheckFailed(f"{name}: no served job passed its check")
    lat = [r["end"] - r["start"] for r in done]
    if bl.samples_beyond(len(lat), 0.95) < 10:
        log(f"{name}: only {len(lat)} jobs; p95 has < 10 samples beyond it")
    reads = sum(r["reads"] for r in done)
    window = max(r["end"] for r in done) - min(r["start"] for r in done)
    log(f"{name}: {len(done)} jobs, {reads} reads in {window:.3f} s")
    return {
        "reads_per_s": reads / window,
        "setup_s": bl.median(setups),
        "job_p50_ms": bl.median(lat) * 1e3,
        "job_p95_ms": bl.quantile(lat, 0.95) * 1e3,
        "mapped_correct_pct": served_correct_pct(wl, spec, data),
        "peak_rss_mb": rss_mb,
        "cpu_s_per_mread": cpu / reads * 1e6,
    }


# ------------------------------------------------------------ traced runs --

STAGES = ["source", "encode", "filter", "verify", "sink"]
LAYER_PREFIXES = ("io.", "mapper.", "encode.", "filters.", "align.")


def replay(name, wl, spec, ref, data, tally):
    """Runs perfbench_replay: a warm-up pass, then unrecorded and recorded
    passes in ABBA order, then the breakdown run; returns (stats, spans)."""
    spans_path = WORK / "run" / "spans.tsv"
    stats_path = WORK / "run" / "replay.json"
    cmd = [str(TOOLS["replay"]), "--mode", wl["kind"], "--ref", str(ref),
           "--data", str(data), "--e", str(spec["e"]), "--threads",
           str(wl["replay_threads"]), "--spans", str(spans_path),
           "--stats", str(stats_path)]
    if wl["kind"] == "jobs":
        cmd += ["--jobs", str(wl["reads"]["jobs"])]
    try:
        rc = subprocess.call(cmd, timeout=120)
    except subprocess.TimeoutExpired:
        rc = "on timeout"
    if not tally.record(rc == 0, f"perfbench_replay exited {rc}"):
        raise CheckFailed(f"{name}: replay failed")
    stats = json.loads(stats_path.read_text())
    spans = bl.read_spans(spans_path)
    return stats, spans


def replay_metrics(stats, spans, m):
    """Per-layer metrics from the last recorded pass and the breakdown."""
    recorded = [p for p, pass_ in enumerate(stats["passes"]) if pass_["record"]]
    last = f"pass{recorded[-1]}"

    def total(run, span_name):
        return sum((s["end_us"] - s["start_us"]) / 1e6 for s in spans
                   if s["run"] == run and s["name"] == span_name)

    reads, cands = stats["reads"], stats["candidates"]
    accepted = stats["accepted"]
    m["io.fastq_parse_s"] = total(last, "io.fastq_parse")
    m["io.fastq_mb_per_s"] = stats["fastq_bytes"] / 1e6 / m["io.fastq_parse_s"]
    m["io.index_open_s"] = total(last, "io.index_open")
    m["mapper.init_s"] = total(last, "mapper.init")
    m["mapper.index_build_s"] = stats["index_build_s"]
    m["mapper.seed_s"] = total(last, "mapper.seed")
    m["mapper.seed_us_per_read"] = m["mapper.seed_s"] / reads * 1e6
    m["mapper.candidates_per_read"] = cands / reads
    m["mapper.sam_write_s"] = total(last, "mapper.sam_write")
    m["mapper.sam_mb"] = stats["sam_bytes"] / 1e6
    m["encode.pack_s"] = total(last, "encode.pack")
    m["filters.filter_s"] = total(last, "filters.filter")
    m["filters.ns_per_pair"] = m["filters.filter_s"] / cands * 1e9
    m["filters.input_pairs"] = cands
    m["filters.simd_tier"] = stats["simd_tier"]
    m["filters.false_accept_pct"] = 100.0 * stats["false_accepts"] / accepted
    m["filters.verify_saved_s"] = (total("breakdown", "align.verify_rejected")
                                   - total("breakdown", "filters.filter"))
    m["align.verify_s"] = total(last, "align.verify")
    m["align.verify_ns_per_pair"] = m["align.verify_s"] / accepted * 1e9
    m["align.verify_pairs"] = accepted
    m["align.confirmed_pct"] = 100.0 * stats["confirmed"] / accepted
    m["align.cigar_s"] = total("breakdown", "align.cigar")
    timed = stats["passes"][1:]  # pass 0 warms the page cache
    offs = [p["wall_s"] for p in timed if not p["record"]]
    ons = [p["wall_s"] for p in timed if p["record"]]
    m["trace.overhead_pct"] = 100.0 * (bl.median(ons) / bl.median(offs) - 1.0)
    return last


def layer_self_time(spans, run, under=None):
    """Sum of layer span self times in one run (optionally only spans
    below spans named `under`)."""
    selected = [s for s in spans if s["run"] == run]
    selves = bl.self_times(selected)
    by_id = {s["id"]: s for s in selected}

    def below(s):
        p = s["parent"]
        while p >= 0:
            if by_id[p]["name"] == under:
                return True
            p = by_id[p]["parent"]
        return False

    return sum(selves[s["id"]] for s in selected
               if s["name"].startswith(LAYER_PREFIXES)
               and (under is None or below(s)))


def stage_metrics(m, busy, wait, workers, wall):
    utils = []
    for i, st in enumerate(STAGES):
        m[f"pipeline.{st}.busy_s"] = busy(st)
        if st != "source":
            m[f"pipeline.{st}.wait_s"] = wait(st)
        utils.append((busy(st) / (workers[st] * wall), i))
    m["pipeline.bottleneck_util"], m["pipeline.bottleneck_stage"] = max(utils)


def write_trace(name, seed, spans):
    out = WORK / "traces" / f"{name}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(bl.chrome_trace(spans, f"perfbench {name}")))
    log(f"chrome trace written to {out}")


def traced_map(name, wl, spec, ref, data, tally):
    truth = bl.read_truth(data / "truth.tsv")
    run_dir = WORK / "run"
    run_dir.mkdir(exist_ok=True)
    sam = run_dir / f"{name}.sam"
    full, one = map_commands(wl, ref, data, sam)
    setup = bl.median(setup_times(one, 3, tally))
    checker = SamChecker(truth, spec["e"])
    walls = []
    for _ in range(4):
        c = checker.run(full, sam)
        if tally.record(c.rc == 0 and checker.ok(sam), "untraced run"):
            walls.append(c.wall)
    if len(walls) < 2:
        raise CheckFailed(f"{name}: untraced runs failed")
    wall = bl.median(walls[1:])
    metrics_json = run_dir / "metrics.json"
    c = checker.run(full + ["--metrics-json", str(metrics_json)], sam,
                    stdout_path=run_dir / "stdout.txt")
    if not tally.record(c.rc == 0 and checker.ok(sam), "--metrics-json run"):
        raise CheckFailed(f"{name}: the --metrics-json run failed")
    table = bl.parse_stats_table(c.stdout)
    snap = json.loads(metrics_json.read_text())
    m = {"filters.reject_pct": 100.0 * bl.metrics_json_total(
        snap, "gkgpu_filter_rejects_total") / bl.metrics_json_total(
        snap, "gkgpu_filter_input_total")}
    if wl["kind"] == "single":
        m["mapper.reported_seed_s"] = table["seeding (s)"]
        m["mapper.reported_verify_s"] = table["verification (s)"]
        m["mapper.reported_total_s"] = table["total (s)"]
        m["mapper.unattributed_s"] = wall - setup - table["total (s)"]
        nofilter = checker.run(full + ["--no-filter"], sam)
        same = nofilter.rc == 0 and checker.ok(sam)
        if tally.record(same, "--no-filter SAM differs from the filtered SAM"):
            m["filters.wall_gain"] = nofilter.wall / wall
    else:
        m["paired.seed_s"] = table["seeding (s)"]
        m["paired.verify_s"] = table["verification (s)"]
        m["paired.total_s"] = table["total (s)"]
        m["paired.unattributed_s"] = wall - setup - table["total (s)"]
        m["paired.pruning_ratio"] = table["pruning ratio"]
        m["paired.proper_pct"] = 100.0 * table["proper pairs"] / table["pairs"]
        m["paired.earlyout_lanes"] = bl.metrics_json_total(
            snap, "gkgpu_joint_earlyout_lanes_total")
        m["align.rescued_mates"] = bl.metrics_json_total(
            snap, "gkgpu_rescued_mates_total")
        stage_metrics(
            m,
            lambda st: bl.metrics_json_total(
                snap, "gkgpu_stage_service_seconds", stage=st),
            lambda st: bl.metrics_json_total(
                snap, "gkgpu_stage_queue_wait_seconds", stage=st),
            wl["stage_workers"], c.wall)
    stats, spans = replay(name, wl, spec, ref, data, tally)
    last = replay_metrics(stats, spans, m)
    tally.record(stats["lost_by_filter"] == 0,
                 "GateKeeper rejected a pair within the edit threshold")
    m["trace.coverage_pct"] = 100.0 * layer_self_time(spans, last) / wall
    return m, spans


def traced_serve(name, wl, spec, ref, data, seconds, tally):
    (WORK / "run").mkdir(exist_ok=True)
    daemon = Daemon(wl, ref, data)
    try:
        daemon.start()
        t_ready = time.perf_counter()
        rows = serve_load(wl, data, seconds, daemon, tally)
        scrape = subprocess.run([str(GKGPU), "stats", "--socket",
                                 str(daemon.sock)], capture_output=True,
                                text=True, timeout=30)
        wall = time.perf_counter() - t_ready
        if not tally.record(scrape.returncode == 0, "gkgpu stats failed"):
            raise CheckFailed("gkgpu stats failed")
        rc, _, _ = daemon.stop()
        tally.record(rc == 0, f"serve exited {rc} on SIGTERM")
    finally:
        daemon.close()
    samples = bl.parse_prometheus(scrape.stdout)
    m = {"filters.reject_pct": 100.0 * bl.prom_total(
        samples, "gkgpu_filter_rejects_total") / bl.prom_total(
        samples, "gkgpu_filter_input_total")}
    batches = bl.prom_total(samples, "gkgpu_serve_batches_total")
    m["serve.coalesced_batch_pct"] = 100.0 * bl.prom_total(
        samples, "gkgpu_serve_coalesced_batches_total") / batches
    m["serve.reads_per_batch"] = bl.prom_total(
        samples, "gkgpu_serve_reads_total") / batches
    m["serve.session_p50_ms"] = 1e3 * bl.prom_histogram_quantile(
        samples, "gkgpu_serve_session_seconds", 0.5)
    m["serve.sessions_failed"] = bl.prom_total(
        samples, "gkgpu_serve_sessions_total", state="failed")
    stage_metrics(
        m,
        lambda st: bl.prom_total(samples, "gkgpu_stage_service_seconds_sum",
                                 stage=st),
        lambda st: bl.prom_total(samples,
                                 "gkgpu_stage_queue_wait_seconds_sum",
                                 stage=st),
        wl["stage_workers"], wall)
    stats, spans = replay(name, wl, spec, ref, data, tally)
    last = replay_metrics(stats, spans, m)
    tally.record(stats["lost_by_filter"] == 0,
                 "GateKeeper rejected a pair within the edit threshold")
    job_p50 = bl.median([r["end"] - r["start"] for r in rows if r["ok"]])
    per_job = layer_self_time(spans, last, under="job") / wl["reads"]["jobs"]
    m["trace.coverage_pct"] = 100.0 * per_job / job_p50
    return m, spans


# ------------------------------------------------------------------- main --


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    os.chdir(ROOT)
    spec = json.loads((HERE / "spec.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = bl.validate_benchmark(bench)
    if problems:
        log(f"BENCHMARK.json is invalid: {'; '.join(problems)}")
        return 2
    if args.workload not in spec["workloads"]:
        log(f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(spec['workloads'])}")
        return 2
    wl = spec["workloads"][args.workload]
    build(args.trace)
    ref, data = prepare_data(args.workload, wl, args.seed)

    tally = Tally()
    metrics = {}
    try:
        if args.trace == 0:
            run = timed_serve if wl["kind"] == "jobs" else timed_map
            metrics = run(args.workload, wl, spec, ref, data, args.seconds, tally)
            wanted = bench["end_to_end"]
        else:
            if wl["kind"] == "jobs":
                metrics, spans = traced_serve(args.workload, wl, spec, ref, data,
                                              min(args.seconds, 5.0), tally)
            else:
                metrics, spans = traced_map(args.workload, wl, spec, ref, data,
                                            tally)
            write_trace(args.workload, args.seed, spans)
            wanted = bench["per_layer"]
    except CheckFailed as ex:
        tally.record(False, str(ex))
        wanted = []
    for problem in tally.problems:
        log(f"check failed: {problem}")
    correct = tally.failed == 0
    out = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)),
                       "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": max(1, tally.attempted),
                      "failed": tally.failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as ex:  # build or harness failure: no result line
        log(f"error: {ex}")
        sys.exit(1)
