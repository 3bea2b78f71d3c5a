"""Each checker passes real outputs and fails the same outputs corrupted.

    python3 -m unittest discover -s benchmarks -p "test_*.py"
"""

import copy
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from certify import certify  # noqa: E402
from checks import (  # noqa: E402
    check_bracket,
    check_case,
    check_game,
    check_lifts,
    check_report,
    check_sdpa,
    check_strategies,
)
from workloads import make_cases  # noqa: E402

from specmm import classic, embed, files, saddle  # noqa: E402

MODULES = {"files": files, "saddle": saddle, "embed": embed, "classic": classic}


def _run(case):
    return certify(MODULES, case, lambda k, upper, lower: None)


class CheckerTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.dense = make_cases("dense", 0)[0]
        cls.game = make_cases("games", 0)[3]
        cls.dense_out = _run(cls.dense)
        cls.game_out = _run(cls.game)

    def corrupt(self, **changes):
        out = copy.deepcopy(self.dense_out)
        for key, value in changes.items():
            setattr(out, key, value)
        return out

    def test_real_outputs_pass(self):
        self.assertIsNone(self.dense_out.error)
        self.assertEqual(check_case(self.dense, self.dense_out), [])
        self.assertEqual(check_case(self.game, self.game_out), [])

    def test_scaled_instance_fails_in_the_lift_only(self):
        case = make_cases("dense", 0)[-1]
        out = _run(case)
        self.assertIn("constraint residual too large", out.error)
        self.assertIsNotNone(out.sdpa)
        self.assertEqual(check_case(case, out), [])

    def test_raised_upper(self):
        out, case = self.dense_out, self.dense
        upper = out.upper + 1e-6 * case.scale
        self.assertTrue(check_bracket(case.matrices, upper, out.lower, upper - out.lower,
                                      False, case.gap_tol, out.x_bar, out.y_bar, case.scale))

    def test_lowered_lower_of_maximin(self):
        upper, lower, gap, conv, _, x, y = self.dense_out.maximin
        case = self.dense
        lower -= 1e-6 * case.scale
        self.assertTrue(check_bracket(case.matrices, upper, lower, upper - lower, False,
                                      case.gap_tol, x, y, case.scale, maximin=True))

    def test_converged_above_target(self):
        out, case = self.dense_out, self.dense
        self.assertEqual(check_bracket(case.matrices, out.upper, out.lower, out.gap, True,
                                       case.gap_tol, out.x_bar, out.y_bar, case.scale), [])
        self.assertTrue(check_bracket(case.matrices, out.upper, out.lower, out.gap, True,
                                      out.gap / 2, out.x_bar, out.y_bar, case.scale))

    def test_y_off_the_simplex(self):
        out, (m, n, _) = self.dense_out, self.dense.matrices.shape
        self.assertEqual(check_strategies(out.x_bar, out.y_bar, n, m), [])
        self.assertTrue(check_strategies(out.x_bar, out.y_bar * 1.001, n, m))
        negative = out.y_bar.copy()
        negative[0] += negative[1] + 0.01
        negative[1] = -0.01
        self.assertTrue(check_strategies(out.x_bar, negative, n, m))

    def test_x_not_psd(self):
        out, (m, n, _) = self.dense_out, self.dense.matrices.shape
        e = np.zeros(n)
        e[0], e[1] = 1.0, -1.0
        # unit trace kept, one eigenvalue pushed below zero
        bad_x = out.x_bar - 0.5 * np.outer(e, e) + np.eye(n) / n
        self.assertTrue(check_strategies(bad_x, out.y_bar, n, m))

    def test_report_value_changed(self):
        out = self.dense_out
        text = out.report_text.replace(repr(out.upper), repr(out.upper + 1e-12), 1)
        self.assertNotEqual(text, out.report_text)
        self.assertTrue(check_report(text, True, out.upper, out.lower, out.gap,
                                     out.converged, out.iterations, out.x_bar, out.y_bar))
        self.assertTrue(check_report(out.report_text, False, out.upper, out.lower, out.gap,
                                     out.converged, out.iterations, out.x_bar, out.y_bar))

    def test_sdpa_line_changed(self):
        out, case = self.dense_out, self.dense
        lines = out.sdpa.splitlines()
        self.assertEqual(check_sdpa(out.sdpa, case.matrices, out.shift, case.scale), [])
        for k in (len(lines) // 2, 5, len(lines) - 1):
            parts = lines[k].split()
            parts[-1] = repr(float(parts[-1]) * (1 + 1e-15) + 1e-300)
            changed = lines[:k] + [" ".join(parts)] + lines[k + 1:]
            text = "\n".join(changed) + "\n"
            self.assertTrue(check_sdpa(text, case.matrices, out.shift, case.scale), k)
        dropped = "\n".join(lines[:-1]) + "\n"
        self.assertTrue(check_sdpa(dropped, case.matrices, out.shift, case.scale))
        swapped = "\n".join(lines[:6] + [lines[7], lines[6]] + lines[8:]) + "\n"
        self.assertTrue(check_sdpa(swapped, case.matrices, out.shift, case.scale))

    def test_lifts_corrupted(self):
        out, scale = self.dense_out, self.dense.scale

        def lifts(o):
            return check_lifts(o.primal_objective, o.shift, o.upper, o.extracted_weights,
                               o.extracted_lower, o.extracted_degenerate, o.margin,
                               o.y_bar, o.lower, scale)

        self.assertEqual(lifts(out), [])
        self.assertTrue(lifts(self.corrupt(primal_objective=out.primal_objective + 1e-6 * scale)))
        self.assertTrue(lifts(self.corrupt(margin=-1e-6 * scale)))
        self.assertTrue(lifts(self.corrupt(extracted_weights=out.extracted_weights[::-1] + 0.0)))
        self.assertTrue(lifts(self.corrupt(extracted_lower=out.lower - 1e-6 * scale)))

    def test_game_value_outside_bracket(self):
        out, case = self.game_out, self.game
        self.assertEqual(check_game(out.exact_value, out.upper, out.lower, case.scale), [])
        outside = out.upper + 1e-6 * case.scale
        self.assertTrue(check_game(outside, out.upper, out.lower, case.scale))
        self.assertTrue(check_game(None, out.upper, out.lower, case.scale))

    def test_check_case_sees_a_corruption(self):
        out = self.corrupt(upper=self.dense_out.upper * (1 + 1e-6) + 1e-6)
        self.assertTrue(check_case(self.dense, out))


if __name__ == "__main__":
    unittest.main()
