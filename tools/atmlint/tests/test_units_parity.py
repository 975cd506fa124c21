"""Units-check parity: the migrated tokenizer-based `units` check
must reproduce the PR 2 check_units.py baseline exactly -- same keys,
no new findings, no stale entries."""

import pathlib
import sys
import unittest

_HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent))

from engine import Engine, load_baseline  # noqa: E402
from registry import load_checks  # noqa: E402

REPO_ROOT = _HERE.parent.parent.parent
BASELINE_DIR = _HERE.parent / "baselines"


class UnitsParityTest(unittest.TestCase):
    def setUp(self):
        checks = load_checks()
        self.assertIn("units", checks)
        self.check = checks["units"]

    def run_units(self, use_baseline):
        engine = Engine(REPO_ROOT, [self.check],
                        baseline_dir=BASELINE_DIR, cache_path=None,
                        use_baseline=use_baseline)
        report = engine.run()
        return report.reports[0]

    def test_baseline_carried_over_from_check_units(self):
        # The committed baseline is the key set the original regex
        # lint (tools/lint/check_units.py) accepted, 36 keys,
        # less those whose code has since gone: the safety monitor's
        # honest_mhz local became a per-core memo field.
        baseline = load_baseline(BASELINE_DIR, "units")
        self.assertEqual(len(baseline.entries), 35)
        for key in baseline.entries:
            path, rule, symbol = key.rsplit(":", 2)
            self.assertTrue(path.startswith("src/"), key)
            self.assertEqual(rule, "units-suffix", key)
            self.assertTrue(symbol, key)

    def test_tree_matches_baseline_exactly(self):
        crep = self.run_units(use_baseline=True)
        self.assertEqual([f.key for f in crep.new], [])
        self.assertEqual(crep.stale, [])
        baseline = load_baseline(BASELINE_DIR, "units")
        self.assertEqual({f.key for f in crep.baselined},
                         set(baseline.entries))

    def test_raw_findings_equal_baseline_keys(self):
        crep = self.run_units(use_baseline=False)
        baseline = load_baseline(BASELINE_DIR, "units")
        self.assertEqual(sorted({f.key for f in crep.new}),
                         sorted(baseline.entries))


if __name__ == "__main__":
    unittest.main()
