"""Pure helpers for the perfbench harness: statistics, span self time,
Chrome-trace output, SAM and Prometheus parsing, and BENCHMARK.json
validation.  Nothing here starts a process or touches the build."""

import json
import math
import re

# ------------------------------------------------------------ statistics --


def quantile(values, q):
    """Linear-interpolated quantile (the 'inclusive' method of
    statistics.quantiles): q=0 is the minimum, q=1 the maximum."""
    if not values:
        raise ValueError("quantile of no values")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def samples_beyond(n, q):
    """How many of n samples lie strictly above the q-quantile's rank."""
    return n - 1 - math.floor(q * (n - 1))


# ------------------------------------------------------------------ spans --


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    children cover.  `spans` is a list of dicts with id, parent, start_us
    and end_us; children of one parent may overlap each other, so their
    union is subtracted, clipped to the parent.  Returns {id: seconds}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        kids = sorted(children.get(s["id"], []), key=lambda k: k["start_us"])
        for k in kids:
            a = max(k["start_us"], s["start_us"])
            b = min(k["end_us"], s["end_us"])
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s["id"]] = max(0.0, (s["end_us"] - s["start_us"] - covered) / 1e6)
    return out


def read_spans(path):
    """Spans written by perfbench_replay (TSV with a header line)."""
    spans = []
    with open(path) as f:
        next(f)
        for line in f:
            run, sid, parent, name, start, end = line.rstrip("\n").split("\t")
            spans.append({"run": run, "id": int(sid), "parent": int(parent),
                          "name": name, "start_us": float(start),
                          "end_us": float(end)})
    return spans


def chrome_trace(spans, pid_label):
    """Chrome trace_event JSON ('X' complete events) for one replay; each
    run id becomes one thread row, each span keeps its parent in args."""
    tids = {}
    events = []
    for s in spans:
        tid = tids.setdefault(s["run"], len(tids) + 1)
        events.append({"name": s["name"], "ph": "X", "pid": 1, "tid": tid,
                       "ts": s["start_us"],
                       "dur": max(0.0, s["end_us"] - s["start_us"]),
                       "args": {"id": s["id"], "parent": s["parent"],
                                "run": s["run"]}})
    events.append({"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": pid_label}})
    for run, tid in tids.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                       "args": {"name": run}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -------------------------------------------------------------------- SAM --


def read_truth(path):
    """truth.tsv: name -> (chromosome, 0-based origin, strand)."""
    truth = {}
    with open(path) as f:
        for line in f:
            name, chrom, pos, strand = line.rstrip("\n").split("\t")
            truth[name] = (chrom, int(pos), int(strand))
    return truth


class SamError(Exception):
    pass


def check_sam(path, truth, e):
    """Parses a SAM file and checks it against the workload's reads.

    Every record must have 11+ tab-separated fields and name an input
    read, and no read may have two primary records.  Returns how many
    reads have a primary record within e bp of the read's origin, on the
    right chromosome and strand.  Raises SamError."""
    primaries = set()
    correct = 0
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if line.startswith("@"):
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) < 11:
                raise SamError(f"{path}:{lineno}: {len(fields)} fields")
            try:
                flag, pos = int(fields[1]), int(fields[3])
            except ValueError:
                raise SamError(f"{path}:{lineno}: bad FLAG or POS") from None
            name = fields[0]
            if name not in truth:
                raise SamError(f"{path}:{lineno}: unknown read {name!r}")
            if flag & 0x100:
                continue
            if name in primaries:
                raise SamError(f"{path}:{lineno}: second primary for {name}")
            primaries.add(name)
            if flag & 0x4:
                continue
            chrom, origin, strand = truth[name]
            if (fields[2] == chrom and bool(flag & 0x10) == bool(strand)
                    and abs((pos - 1) - origin) <= e):
                correct += 1
    return correct


# ------------------------------------------------------------- counters --

_PROM_LINE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$')
_PROM_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text):
    """Prometheus text exposition -> list of (name, {labels}, value)."""
    out = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _PROM_LINE.match(line)
        if not m:
            continue
        labels = dict(_PROM_LABEL.findall(m.group(2) or ""))
        out.append((m.group(1), labels, float(m.group(3))))
    return out


def prom_total(samples, name, **match):
    return sum(v for n, labels, v in samples
               if n == name and all(labels.get(k) == x for k, x in match.items()))


def prom_histogram_quantile(samples, name, q, **match):
    """Quantile from cumulative `le` buckets, interpolated linearly within
    the bucket (as the program's own histogram does).  0 when empty."""
    buckets = sorted(
        (math.inf if labels["le"] == "+Inf" else float(labels["le"]), v)
        for n, labels, v in samples
        if n == name + "_bucket"
        and all(labels.get(k) == x for k, x in match.items()))
    if not buckets or buckets[-1][1] == 0:
        return 0.0
    rank = q * buckets[-1][1]
    prev_le, prev_count = 0.0, 0.0
    for le, count in buckets:
        if count >= rank:
            if math.isinf(le):
                return prev_le
            width = count - prev_count
            frac = (rank - prev_count) / width if width else 0.0
            return prev_le + (le - prev_le) * frac
        prev_le, prev_count = le, count
    return prev_le


def metrics_json_total(snapshot, name, **match):
    """Sum of a counter family (or of a histogram family's `sum`) in a
    `--metrics-json` snapshot; 0 when the family is absent."""
    family = snapshot.get(name)
    if family is None:
        return 0.0
    total = 0.0
    for s in family["samples"]:
        if all(s["labels"].get(k) == x for k, x in match.items()):
            total += s["sum"] if "sum" in s else s["value"]
    return total


def parse_stats_table(text):
    """The CLI's `| metric | value |` tables -> {metric: float}; counts
    lose their thousands separators, percentages their sign."""
    out = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 2 or cells[0] in ("metric", "") or cells[0].startswith("-"):
            continue
        try:
            out.setdefault(cells[0], float(cells[1].replace(",", "").rstrip("%")))
        except ValueError:
            continue
    return out


# ------------------------------------------------------ BENCHMARK.json --

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def validate_benchmark(doc):
    """Returns the list of ways `doc` breaks the BENCHMARK.json contract
    (empty when it is valid)."""
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(doc) != keys:
        errors.append(f"top-level keys {sorted(doc)} != {sorted(keys)}")
        return errors
    cmd = doc["command"]
    if (not isinstance(cmd, list) or not 1 <= len(cmd) <= 32
            or not all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        errors.append("command must be 1-32 strings of <= 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        errors.append("command names an absolute or parent path")
    paths = doc["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        errors.append("paths must list 1-16 directories")
    else:
        for p in paths:
            if (not isinstance(p, str) or not _PATH.match(p) or p.startswith("/")
                    or ".." in p.split("/")):
                errors.append(f"bad path {p!r}")
    rs = doc["run_seconds"]
    if not isinstance(rs, int) or isinstance(rs, bool) or not 1 <= rs <= 60:
        errors.append("run_seconds must be a whole number in [1, 60]")
    names = []
    wl = doc["workloads"]
    if not isinstance(wl, list) or not 2 <= len(wl) <= 8:
        errors.append("workloads must list 2-8 entries")
    else:
        for w in wl:
            if set(w) != {"name", "why"}:
                errors.append(f"workload keys {sorted(w)}")
                continue
            names.append(w["name"])
            if (not isinstance(w["why"], str) or not w["why"]
                    or len(w["why"]) > 200 or "\n" in w["why"]):
                errors.append(f"workload {w['name']}: why must be one line "
                              "of <= 200 characters")
    for section, lo, hi, keyset in (
            ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
            ("per_layer", 1, 128, {"name", "unit", "better"})):
        ms = doc[section]
        if not isinstance(ms, list) or not lo <= len(ms) <= hi:
            errors.append(f"{section} must list {lo}-{hi} metrics")
            continue
        for m in ms:
            if set(m) != keyset:
                errors.append(f"{section} metric keys {sorted(m)}")
                continue
            names.append(m["name"])
            if not isinstance(m["unit"], str) or not _UNIT.match(m["unit"]):
                errors.append(f"{m['name']}: bad unit {m['unit']!r}")
            if m["better"] not in ("higher", "lower"):
                errors.append(f"{m['name']}: better must be higher|lower")
            if "bound" in m and not (
                    isinstance(m["bound"], (int, float))
                    and not isinstance(m["bound"], bool)
                    and 0 < m["bound"] <= 0.25):
                errors.append(f"{m['name']}: bound must be in (0, 0.25]")
    for n in names:
        if not isinstance(n, str) or not _NAME.match(n):
            errors.append(f"bad name {n!r}")
    dup = sorted({n for n in names if names.count(n) > 1})
    if dup:
        errors.append(f"names used twice: {dup}")
    setup = [m for m in doc["end_to_end"] if m.get("name") == "setup_s"]
    if (len(setup) != 1 or setup[0].get("unit") != "s"
            or setup[0].get("better") != "lower"):
        errors.append("end_to_end needs setup_s in s, better lower")
    if len(json.dumps(doc).encode()) > 64 * 1024:
        errors.append("file larger than 64 KiB")
    return errors
