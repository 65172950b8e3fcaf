"""The benchmark's own tests. Run from the repository root:

    python3 -m unittest perfbench/test_perfbench.py

They build the driver (as run.py does), then check the span self-time
arithmetic, that inputs are a function of the seed, that every metric name
is well formed and matches BENCHMARK.json, and that a tiny run of every
workload emits every named metric with its unit.
"""
import collections
import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


class SelfTimeTest(unittest.TestCase):
    @staticmethod
    def span(sid, parent, name, start, end, request=1):
        return {"request": request, "span": sid, "parent": parent, "name": name,
                "start": start, "end": end}

    def test_children_overlapping_and_outside(self):
        s = [self.span(1, 0, "request", 0, 100),
             self.span(2, 1, "a", 10, 30),
             self.span(3, 1, "b", 20, 50),     # overlaps a: union is 10..50
             self.span(4, 1, "c", 90, 120),    # only 90..100 is inside
             self.span(5, 1, "replay", 200, 300)]  # outside: covers nothing
        selfs = spans.self_times(s)
        self.assertEqual(selfs[1], 100 - 40 - 10)
        self.assertEqual(selfs[2], 20)
        self.assertEqual(selfs[5], 100)

    def test_grandchildren_count_only_against_their_parent(self):
        s = [self.span(1, 0, "replay", 0, 100),
             self.span(2, 1, "tag", 0, 60),
             self.span(3, 2, "inner", 10, 20)]
        selfs = spans.self_times(s)
        self.assertEqual(selfs[1], 40)
        self.assertEqual(selfs[2], 50)

    def test_layer_metrics_mean_per_name_in_microseconds(self):
        s = [self.span(1, 0, "rank", 0, 2000),
             self.span(2, 0, "rank", 0, 4000, request=2),
             self.span(3, 0, "protocol.encode", 0, 500)]
        m = spans.layer_metrics(s)
        self.assertAlmostEqual(m["stage.rank_us"], 3.0)
        self.assertAlmostEqual(m["protocol.encode_us"], 0.5)
        self.assertEqual(m["stage.classify_us"], 0.0)

    def test_read_spans_round_trip(self):
        path = os.path.join(build_dir(), "test-spans.tsv")
        os.makedirs(build_dir(), exist_ok=True)
        with open(path, "w") as f:
            f.write("request\tspan\tparent\tname\tstart_ns\tend_ns\n1\t1\t0\trequest\t5\t9\n")
        self.assertEqual(spans.read_spans(path),
                         [self.span(1, 0, "request", 5, 9)])
        os.remove(path)


class SpecTest(unittest.TestCase):
    def test_names_units_and_bounds(self):
        s = spec()
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        names += [w["name"] for w in s["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in s["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in s["end_to_end"]))
        self.assertEqual(sorted(w["name"] for w in s["workloads"]), sorted(run.WORKLOADS))


class DriverTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        cls.binary, cls.daemon = run.build(ROOT, build_dir())
        cls.work = os.path.join(build_dir(), "test-inputs")
        shutil.rmtree(cls.work, ignore_errors=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def gen(self, workload, seed, name):
        out = os.path.join(self.work, name)
        os.makedirs(out)
        subprocess.run([self.binary, "gen", "--workload", workload, "--seed", str(seed),
                        "--seconds", "2", "--dir", out, "--smoke"], check=True)
        return out

    def test_same_seed_same_bytes(self):
        for w in run.WORKLOADS:
            a, b = self.gen(w, 5, f"{w}-a"), self.gen(w, 5, f"{w}-b")
            files = sorted(os.listdir(a))
            self.assertEqual(files, sorted(os.listdir(b)))
            match, mismatch, errors = filecmp.cmpfiles(a, b, files, shallow=False)
            self.assertEqual((mismatch, errors), ([], []), w)
            c = self.gen(w, 6, f"{w}-c")
            self.assertFalse(filecmp.cmp(os.path.join(a, "questions.tsv"),
                                         os.path.join(c, "questions.tsv"), shallow=False), w)

    def test_zipf_draw(self):
        d = self.gen("survey_wire", 3, "zipf")
        with open(os.path.join(d, "questions.tsv")) as f:
            distinct = sum(1 for _ in f)
        with open(os.path.join(d, "requests.txt")) as f:
            draws = [int(line) for line in f]
        counts = collections.Counter(draws)
        # Zipf(0.8): the most popular question's share is 1 / H where
        # H = sum over ranks r of r^-0.8.
        h = sum(r ** -0.8 for r in range(1, distinct + 1))
        top = counts.most_common(1)[0][1] / len(draws)
        self.assertAlmostEqual(top, 1 / h, delta=0.25 / h)
        self.assertGreater(len(counts), distinct // 2)


class SmokeTest(unittest.TestCase):
    """A tiny run of every workload, both modes, through run.py."""

    def check(self, workload, trace):
        p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                            "--seed", "1", "--seconds", "2", "--trace", str(trace), "--smoke"],
                           cwd=ROOT, capture_output=True, text=True)
        self.assertEqual(p.returncode, 0, p.stderr[-3000:])
        result = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in wanted))
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_survey_wire(self):
        self.check("survey_wire", 0)
        self.check("survey_wire", 1)

    def test_fresh_ingest(self):
        self.check("fresh_ingest", 0)
        self.check("fresh_ingest", 1)

    def test_rank_sweep(self):
        self.check("rank_sweep", 0)
        self.check("rank_sweep", 1)


if __name__ == "__main__":
    unittest.main()
