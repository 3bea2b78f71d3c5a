"""The tracer: self times, wrappers bound everywhere, missing names.

    python3 -m unittest discover -s benchmarks -p "test_*.py"
"""

import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from certify import certify  # noqa: E402
from tracing import Tracer, summarise  # noqa: E402
from workloads import make_cases  # noqa: E402

from specmm import classic, domains, embed, files, saddle, symmat  # noqa: E402

MODULES = {"symmat": symmat, "domains": domains, "saddle": saddle, "embed": embed,
           "classic": classic, "files": files}


class TracingTests(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            ["saddle.solve", 0.0, 10.0, -1, 0],
            ["symmat.eigh", 1.0, 4.0, 0, 3],
            ["symmat.eigh", 5.0, 6.0, 0, 2],
        ]
        got = summarise(spans)
        self.assertEqual(got["saddle.solve"]["self"], 6.0)
        self.assertEqual(got["symmat.eigh"]["calls"], 2)
        self.assertEqual(got["symmat.eigh"]["busy"], 4.0)
        self.assertEqual(got["symmat.eigh"]["order3"], 27 + 8)

    def test_wrappers_reach_every_binding_and_come_off(self):
        tracer = Tracer(MODULES)
        orig = symmat._eigh_raw
        self.assertIs(saddle._eigh_raw, orig)
        tracer.install()
        try:
            self.assertIsNot(saddle._eigh_raw, orig)
            self.assertIsNot(domains._eigh_raw, orig)
            self.assertIs(saddle._eigh_raw, symmat._eigh_raw)
            out = certify(MODULES, make_cases("games", 0)[2], lambda k, u, lo: None)
        finally:
            tracer.uninstall()
        self.assertIs(saddle._eigh_raw, orig)
        self.assertIs(domains._eigh_raw, orig)
        self.assertIsNone(out.error)
        names = {s[0] for s in tracer.take()}
        self.assertTrue({"symmat.eigh", "saddle.solve", "embed.build", "classic.exact",
                         "files.parse", "files.report", "domains.check"} <= names)

    def test_missing_name_leaves_layer_unmeasured(self):
        modules = dict(MODULES, classic=types.SimpleNamespace())
        tracer = Tracer(modules)
        self.assertEqual(tracer.unmeasured, {"classic": ["specmm.classic.classic_value_exact"]})
        tracer.install()
        try:
            out = certify(MODULES, make_cases("games", 0)[2], lambda k, u, lo: None)
        finally:
            tracer.uninstall()
        self.assertIsNone(out.error)
        names = {s[0] for s in tracer.take()}
        self.assertNotIn("classic.exact", names)
        self.assertIn("saddle.solve", names)


if __name__ == "__main__":
    unittest.main()
