"""The benchmark's own tests.  Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import gen  # noqa: E402
import model  # noqa: E402
import run  # noqa: E402

ROOT = os.path.dirname(HERE)
SMALL = {"schema": 1, "rings": ["Zn(6)", "prod(Zn(2),Zn(3))"], "taus": list(gen.DEFAULT_TAUS), "cap": 6}


class Generator(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in gen.WORKLOADS:
            self.assertEqual(gen.generate(w, 7), gen.generate(w, 7), w)

    def test_other_seed_other_inputs(self):
        for w in gen.WORKLOADS:
            a, b = gen.generate(w, 7), gen.generate(w, 8)
            self.assertNotEqual(a.get("corpus") or a["requests"], b.get("corpus") or b["requests"], w)

    def test_stream_shape(self):
        spec = gen.generate("query-stream", 3)
        props = spec["props"]
        self.assertEqual(props["requests"], gen.REQUESTS)
        self.assertAlmostEqual(props["repeated_share"], gen.REPEAT_SHARE, places=2)
        tenth = gen.REQUESTS // 10
        self.assertEqual(props["commands"], {"factorizations": 5 * tenth, "classify": 3 * tenth, "ufact": 2 * tenth})
        self.assertTrue(all(r[-2:] == ["--cap", "6"] for r in spec["requests"]))

    def test_finite_sweep_spans_constructions(self):
        rings = gen.generate("finite-sweep", 3)["corpus"]["rings"]
        self.assertTrue(any(r.startswith("Zn") for r in rings))
        self.assertTrue(any(r.startswith("GFq") for r in rings))
        self.assertTrue(any(r.startswith("prod(prod") or ",prod(" in r for r in rings))
        self.assertTrue(all(model.parse_ring(r).order <= 36 for r in rings))


class Model(unittest.TestCase):
    def test_units_match_taufact(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from taufact.parsing import build_ring_from_text

        for spec in ("Zn(12)", "GFq(3,[0,0,1])", "GFq(2,[1,1,0,1])", "prod(Zn(4),GFq(2,[0,1,1]))"):
            ours, theirs = model.parse_ring(spec), build_ring_from_text(spec)
            mine = {a for a in ours.elements() if ours.is_unit(a)}
            self.assertEqual(mine, set(theirs.units()), spec)


def _verify(corpus, trace):
    """Report bytes and result of one child repetition on a corpus."""
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        inputs = os.path.join(work, "inputs.json")
        with open(inputs, "w") as fh:
            json.dump(corpus, fh)
        result = run.spawn(ROOT, os.path.join(work, "job"), "verify", inputs, trace, trace_out=os.path.join(work, "trace.json"))
        return result["report"], result
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Gate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.report, cls.result = _verify(SMALL, trace=False)

    def test_clean_report_passes(self):
        digest = hashlib.sha256(self.report).hexdigest()
        self.assertEqual(gate.check_report(self.report, SMALL, 0, digest), (0, []))

    def test_flipped_byte_fails(self):
        digest = hashlib.sha256(self.report).hexdigest()
        i = self.report.index(b"verified")
        flipped = self.report[:i] + bytes([self.report[i] ^ 1]) + self.report[i + 1 :]
        failed, problems = gate.check_report(flipped, SMALL, 0, digest)
        self.assertEqual(failed, 14)
        self.assertIn("digest", problems[0])

    def test_violated_row_fails(self):
        report = json.loads(self.report)
        report["entries"][0]["outcome"] = "violated"
        report["summary"]["violated"] += 1
        failed, problems = gate.check_report(json.dumps(report).encode(), SMALL, 0)
        self.assertEqual(failed, 1)
        self.assertIn("violated row", problems[0])

    def test_nonzero_exit_fails(self):
        self.assertEqual(gate.check_report(self.report, SMALL, 2)[0], 14)

    def test_wrong_factorization_fails(self):
        argv = ["factorizations", "--ring", "Zn(12)", "--tau", "full", "--element", "6", "--cap", "6"]
        good = {"target": 6, "items": [{"unit": 1, "factors": [2, 3], "target": 6, "trivial": False}]}
        self.assertIsNone(gate.check_response(argv, 0, json.dumps(good)))
        bad = {"target": 6, "items": [{"unit": 1, "factors": [2, 2], "target": 6, "trivial": False}]}
        self.assertIsNotNone(gate.check_response(argv, 0, json.dumps(bad)))

    def test_traced_run_keeps_report_bytes(self):
        traced, result = _verify(SMALL, trace=True)
        self.assertEqual(traced, self.report)
        self.assertGreater(result["layers"]["factor.enumerate.calls"], 0)


if __name__ == "__main__":
    unittest.main()
