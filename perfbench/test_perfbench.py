"""Tests of the perfbench harness itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The generator tests build perfbench_gen (and gkgpu) into .bench_build/
the way run.py does; the rest are pure."""

import json
import math
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib as bl  # noqa: E402


class StatisticsTest(unittest.TestCase):
    def test_quantile_matches_statistics_inclusive(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.5, 7.25]
        for n in (4, 10, 20):
            expect = statistics.quantiles(xs, n=n, method="inclusive")
            got = [bl.quantile(xs, i / n) for i in range(1, n)]
            for a, b in zip(got, expect):
                self.assertAlmostEqual(a, b)

    def test_quantile_edges(self):
        self.assertEqual(bl.quantile([3.0], 0.95), 3.0)
        self.assertEqual(bl.quantile([1.0, 2.0], 0.0), 1.0)
        self.assertEqual(bl.quantile([1.0, 2.0], 1.0), 2.0)
        self.assertEqual(bl.median([4.0, 1.0, 3.0, 2.0]), 2.5)
        with self.assertRaises(ValueError):
            bl.quantile([], 0.5)

    def test_samples_beyond_p95(self):
        self.assertEqual(bl.samples_beyond(201, 0.95), 10)
        self.assertLess(bl.samples_beyond(100, 0.95), 10)


def span(sid, parent, start, end, name="x", run="r"):
    return {"run": run, "id": sid, "parent": parent, "name": name,
            "start_us": float(start), "end_us": float(end)}


class SelfTimeTest(unittest.TestCase):
    def test_nested(self):
        spans = [span(0, -1, 0, 1_000_000), span(1, 0, 100_000, 400_000),
                 span(2, 1, 200_000, 300_000), span(3, 0, 500_000, 600_000)]
        st = bl.self_times(spans)
        self.assertAlmostEqual(st[0], 0.6)
        self.assertAlmostEqual(st[1], 0.2)
        self.assertAlmostEqual(st[2], 0.1)
        self.assertAlmostEqual(st[3], 0.1)
        self.assertAlmostEqual(sum(st.values()), 1.0)

    def test_overlapping_children_count_once(self):
        spans = [span(0, -1, 0, 1_000_000), span(1, 0, 0, 600_000),
                 span(2, 0, 400_000, 800_000)]
        self.assertAlmostEqual(bl.self_times(spans)[0], 0.2)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, -1, 100_000, 200_000), span(1, 0, 150_000, 900_000)]
        self.assertAlmostEqual(bl.self_times(spans)[0], 0.05)

    def test_chrome_trace_is_loadable(self):
        spans = [span(0, -1, 0, 10, "replay", "pass1"),
                 span(1, 0, 1, 5, "mapper.seed", "pass1"),
                 span(0, -1, 20, 30, "breakdown", "breakdown")]
        doc = json.loads(json.dumps(bl.chrome_trace(spans, "perfbench t")))
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        self.assertEqual(len(events), 3)
        self.assertEqual({e["tid"] for e in events}, {1, 2})
        self.assertEqual(events[1]["args"]["parent"], 0)


class ParsingTest(unittest.TestCase):
    def test_check_sam(self):
        truth = {"a": ("chr1", 100, 0), "b": ("chr2", 50, 1),
                 "c": ("chr1", 7, 0)}
        rows = ["@HD\tVN:1.6",
                "a\t0\tchr1\t104\t60\t100M\t*\t0\t0\tACGT\t*",
                "a\t256\tchr1\t900\t0\t100M\t*\t0\t0\tACGT\t*",
                "b\t16\tchr2\t48\t60\t100M\t*\t0\t0\tACGT\t*",
                "c\t16\tchr1\t8\t60\t100M\t*\t0\t0\tACGT\t*"]
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "x.sam"
            path.write_text("\n".join(rows) + "\n")
            self.assertEqual(bl.check_sam(path, truth, 5), 2)
            path.write_text("\n".join(rows + [rows[1]]) + "\n")
            with self.assertRaises(bl.SamError):
                bl.check_sam(path, truth, 5)
            path.write_text(rows[1].replace("a\t", "zz\t", 1) + "\n")
            with self.assertRaises(bl.SamError):
                bl.check_sam(path, truth, 5)
            path.write_text("a\t0\tchr1\n")
            with self.assertRaises(bl.SamError):
                bl.check_sam(path, truth, 5)

    def test_prometheus(self):
        text = "\n".join([
            "# TYPE gkgpu_serve_sessions_total counter",
            'gkgpu_serve_sessions_total{state="accepted"} 5',
            'gkgpu_serve_sessions_total{state="failed"} 1',
            'h_bucket{le="0.01"} 0', 'h_bucket{le="0.02"} 4',
            'h_bucket{le="0.05"} 8', 'h_bucket{le="+Inf"} 8',
            "h_sum 0.2", "h_count 8"])
        s = bl.parse_prometheus(text)
        self.assertEqual(bl.prom_total(s, "gkgpu_serve_sessions_total"), 6)
        self.assertEqual(
            bl.prom_total(s, "gkgpu_serve_sessions_total", state="failed"), 1)
        self.assertAlmostEqual(bl.prom_histogram_quantile(s, "h", 0.5), 0.02)
        self.assertAlmostEqual(bl.prom_histogram_quantile(s, "h", 0.25), 0.015)
        self.assertEqual(bl.prom_histogram_quantile(s, "missing", 0.5), 0.0)

    def test_metrics_json_total(self):
        snap = {"c": {"samples": [{"labels": {"stage": "a"}, "value": 2},
                                  {"labels": {"stage": "b"}, "value": 3}]},
                "h": {"samples": [{"labels": {"stage": "a"}, "sum": 1.5,
                                   "count": 3}]}}
        self.assertEqual(bl.metrics_json_total(snap, "c"), 5)
        self.assertEqual(bl.metrics_json_total(snap, "c", stage="b"), 3)
        self.assertEqual(bl.metrics_json_total(snap, "h", stage="a"), 1.5)
        self.assertEqual(bl.metrics_json_total(snap, "gone"), 0)

    def test_stats_table(self):
        text = ("| metric | value |\n|---|---|\n| reads | 20,000 |\n"
                "| reduction | 90.8% |\n| seeder | dense |\n"
                "| total (s) | 0.479 |\n")
        t = bl.parse_stats_table(text)
        self.assertEqual(t, {"reads": 20000.0, "reduction": 90.8,
                             "total (s)": 0.479})


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.spec = json.loads((HERE / "spec.json").read_text())

    def test_repo_file_is_valid(self):
        self.assertEqual(bl.validate_benchmark(self.doc), [])

    def test_metrics_and_workloads_match_spec(self):
        layer = [m for entry in self.spec["layers"] for m in entry["metrics"]]
        self.assertEqual(sorted(m["name"] for m in self.doc["per_layer"]),
                         sorted(layer))
        self.assertEqual(sorted(m["name"] for m in self.doc["end_to_end"]),
                         sorted(self.spec["end_to_end"]))
        self.assertEqual(sorted(w["name"] for w in self.doc["workloads"]),
                         sorted(self.spec["workloads"]))
        setup = [m for m in self.doc["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.doc["end_to_end"]))

    def test_rejects_grammar_violations(self):
        def broken(edit):
            doc = json.loads(json.dumps(self.doc))
            edit(doc)
            return bl.validate_benchmark(doc)

        self.assertTrue(broken(lambda d: d["per_layer"][0].update(name="_x")))
        self.assertTrue(broken(lambda d: d["per_layer"][0].update(name="a b")))
        self.assertTrue(broken(lambda d: d["per_layer"][0].update(name="x" * 65)))
        self.assertTrue(broken(lambda d: d["per_layer"][1].update(
            name=d["per_layer"][0]["name"])))
        self.assertTrue(broken(lambda d: d["end_to_end"][0].update(bound=0.3)))
        self.assertTrue(broken(lambda d: d["end_to_end"][0].update(unit="m s")))
        self.assertTrue(broken(lambda d: d["end_to_end"][0].update(better="up")))
        self.assertTrue(broken(lambda d: d["workloads"][0].update(why="a\nb")))
        self.assertTrue(broken(lambda d: d.update(run_seconds=61)))
        self.assertTrue(broken(lambda d: d.update(paths=["../x"])))
        self.assertTrue(broken(lambda d: d.update(command=["/usr/bin/python3"])))
        self.assertTrue(broken(lambda d: d.update(extra=1)))
        self.assertTrue(broken(lambda d: d["end_to_end"].pop(
            [m["name"] for m in d["end_to_end"]].index("setup_s"))))


class GeneratorTest(unittest.TestCase):
    """Same seed, same bytes; another seed, other bytes."""

    @classmethod
    def setUpClass(cls):
        import run as bench

        bench.os.chdir(bench.ROOT)
        bench.build(trace=False)
        cls.gen = str(bench.ROOT / bench.TOOLS["gen"])

    def generate(self, out, seed, kind, extra):
        """Generates a reference from genome seed 5, then the reads of
        `kind` from `seed`; returns {file name: bytes}."""
        ref = Path(out) / "ref"
        ref.mkdir()
        genome = [self.gen, "--kind", "genome", "--out", str(ref), "--seed",
                  "5", "--genome-bp", "40000", "--chromosomes", "2"]
        self.assertEqual(subprocess.call(genome), 0)
        reads = [self.gen, "--kind", kind, "--ref", str(ref / "ref.fa"),
                 "--out", str(out), "--seed", str(seed), *extra]
        self.assertEqual(subprocess.call(reads), 0)
        return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())
                if p.is_file()}

    def check(self, kind, extra, varying):
        with tempfile.TemporaryDirectory() as d:
            a, b, c = (Path(d) / n for n in "abc")
            for p in (a, b, c):
                p.mkdir()
            first = self.generate(a, 7, kind, extra)
            again = self.generate(b, 7, kind, extra)
            other = self.generate(c, 8, kind, extra)
            self.assertEqual((a / "ref" / "ref.fa").read_bytes(),
                             (c / "ref" / "ref.fa").read_bytes())
        self.assertEqual(first, again)
        self.assertEqual(sorted(first), sorted(other))
        for name in varying:
            self.assertNotEqual(first[name], other[name], name)
        return first

    def test_genome_seed(self):
        with tempfile.TemporaryDirectory() as d:
            outs = []
            for seed in (1, 1, 2):
                out = Path(d) / f"g{len(outs)}"
                out.mkdir()
                self.assertEqual(subprocess.call(
                    [self.gen, "--kind", "genome", "--out", str(out), "--seed",
                     str(seed), "--genome-bp", "30000", "--chromosomes",
                     "3"]), 0)
                outs.append((out / "ref.fa").read_bytes())
        self.assertEqual(outs[0], outs[1])
        self.assertNotEqual(outs[0], outs[2])
        self.assertEqual(outs[0].count(b">"), 3)

    def test_single(self):
        files = self.check("single", ["--reads", "200"],
                           ["reads.fq", "truth.tsv"])
        strands = [line.split(b"\t")[3] for line in
                   files["truth.tsv"].splitlines()]
        self.assertEqual(len(strands), 200)
        self.assertTrue(60 < strands.count(b"1") < 140)
        chroms = {line.split(b"\t")[1] for line in
                  files["truth.tsv"].splitlines()}
        self.assertEqual(chroms, {b"chr1", b"chr2"})

    def test_paired(self):
        files = self.check("paired", ["--profile", "richdel", "--pairs", "50"],
                           ["r1.fq", "r2.fq", "truth.tsv"])
        self.assertEqual(len(files["truth.tsv"].splitlines()), 100)

    def test_jobs(self):
        files = self.check("jobs", ["--jobs", "3", "--job-reads", "20"],
                           ["job_000.fq", "job_002.fq", "truth.tsv"])
        self.assertIn("job_002.fq", files)
        self.assertEqual(files["job_000.fq"].count(b"\n"), 80)


if __name__ == "__main__":
    unittest.main()
