import ast
import math
from pathlib import Path

import numpy as np
import pytest

import specmm
from specmm import (
    SymMatrix,
    eigh,
    frobenius_inner,
    is_psd,
    lambda_max,
    lambda_min,
)
from specmm.symmat import _eigh_raw

from conftest import random_orthogonal, random_symmetric


def eig2x2_closed_form(a, b, c):
    """Eigenvalues of [[a, b], [b, c]] from the characteristic polynomial."""
    mid = 0.5 * (a + c)
    rad = math.hypot(0.5 * (a - c), b)
    return mid - rad, mid + rad


class TestSymMatrix:
    def test_symmetrizes_on_construction(self):
        m = SymMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert np.array_equal(m.array, np.array([[1.0, 1.0], [1.0, 3.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            SymMatrix(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            SymMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_backing_array_is_frozen(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0

    def test_trace(self):
        a = SymMatrix(np.array([[1.0, 2.0], [2.0, 3.0]]))
        assert a.trace() == 4.0


class TestFrobeniusInner:
    def test_identity_pair(self):
        assert frobenius_inner(SymMatrix(np.eye(2)), SymMatrix(np.eye(2))) == 2.0

    def test_orthogonal_pair(self):
        z = SymMatrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
        x = SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert frobenius_inner(z, x) == 0.0

    def test_entrywise_sum(self):
        a = SymMatrix(np.array([[1.0, 2.0], [2.0, 3.0]]))
        b = SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert frobenius_inner(a, b) == 4.0

    def test_symmetric_bilinear(self, rng):
        for _ in range(20):
            a = random_symmetric(rng, 5)
            b = random_symmetric(rng, 5)
            c = random_symmetric(rng, 5)
            assert frobenius_inner(a, b) == pytest.approx(frobenius_inner(b, a), abs=1e-12)
            lhs = frobenius_inner(a, SymMatrix(2.0 * b.array + c.array))
            rhs = 2.0 * frobenius_inner(a, b) + frobenius_inner(a, c)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            frobenius_inner(SymMatrix(np.eye(2)), SymMatrix(np.eye(3)))

    def test_tensordot_is_used_only_here(self):
        # the stack contractions have one home, domains._payoffs and
        # domains._combination; this keeps a copy from growing back elsewhere
        users = []
        for path in sorted(Path(specmm.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
            for node in ast.walk(tree):
                if any(getattr(node, k, None) == "tensordot" for k in ("attr", "id", "name")):
                    owner = [f.name for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                    users.append(".".join([path.stem] + owner))
        assert users == ["symmat.frobenius_inner"]


class TestEigh:
    def test_diagonal_input_sorts_with_permutation_vectors(self):
        dec = eigh(SymMatrix(np.diag([3.0, -2.0, 5.0])))
        assert np.array_equal(dec.eigenvalues, np.array([-2.0, 3.0, 5.0]))
        # diagonal input is already reduced, so the vectors are exactly
        # columns of the identity, reordered by eigenvalue
        expect = np.eye(3)[:, [1, 0, 2]]
        assert np.array_equal(dec.eigenvectors, expect)

    def test_exchange_matrix(self):
        dec = eigh(SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        r = math.sqrt(0.5)
        assert dec.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert dec.eigenvectors[:, 0] == pytest.approx([r, -r], abs=1e-12)
        assert dec.eigenvectors[:, 1] == pytest.approx([r, r], abs=1e-12)

    def test_construct_then_recover(self, rng):
        # plant a known spectrum via an orthogonal conjugation built
        # independently of the solver under test
        d = np.array([-3.0, -0.5, 0.0, 1.25, 4.0])
        for _ in range(10):
            q = random_orthogonal(rng, 5)
            a = SymMatrix(q @ np.diag(d) @ q.T)
            dec = eigh(a)
            assert dec.eigenvalues == pytest.approx(d, abs=1e-10)

    def test_reconstruction_and_orthogonality(self, rng):
        for n in [*range(1, 9), 16, 32]:
            for _ in range(5):
                a = random_symmetric(rng, n)
                dec = eigh(a)
                u, w = dec.eigenvectors, dec.eigenvalues
                assert np.abs(u @ u.T - np.eye(n)).max() <= 1e-10
                assert np.abs((u * w) @ u.T - a.array).max() <= 1e-9

    def test_matches_independent_solver(self, rng):
        for _ in range(20):
            a = random_symmetric(rng, 6)
            mine = eigh(a).eigenvalues
            ref = np.linalg.eigvalsh(a.array)
            assert mine == pytest.approx(ref, abs=1e-10)

    def test_eigenvalues_nondecreasing_and_sign_fixed(self, rng):
        q = random_orthogonal(rng, 5)
        inputs = [random_symmetric(rng, 7) for _ in range(10)]
        inputs += [
            SymMatrix(np.array([[2.0]])),
            SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
            SymMatrix(np.diag([3.0, -2.0, 5.0])),
            SymMatrix(q @ np.diag([1.0, 1.0, 2.0, 2.0, 2.0]) @ q.T),
            # block diagonal: some columns start with zeros
            SymMatrix(np.block([[np.zeros((2, 2)), np.zeros((2, 3))],
                                [np.zeros((3, 2)), random_symmetric(rng, 3).array]])),
        ]
        flipped = 0
        for a in inputs:
            dec = eigh(a)
            flipped += not np.array_equal(dec.eigenvectors, _eigh_raw(a.array)[1])
            assert np.all(np.diff(dec.eigenvalues) >= 0.0)
            for k in range(a.n):
                col = dec.eigenvectors[:, k]
                first = col[np.nonzero(col)[0][0]]
                assert first > 0.0
        # LAPACK's own signs are not all positive, so the fix did work here
        assert flipped > 0

    def test_spectral_functions_ignore_eigenvector_signs(self, rng):
        # U f(w) U^T formed from unfixed _eigh_raw columns, as the clipped
        # spectra in saddle and the exponentials in sample_spectraplex are:
        # negating a column is exact and cancels, so the floats match the
        # product formed from sign-fixed eigh
        q = random_orthogonal(rng, 5)
        inputs = [random_symmetric(rng, n).array for n in (1, 2, 5, 8)]
        inputs += [
            np.diag([3.0, -2.0, 5.0, 0.5]),
            q @ np.diag([1.0, 1.0, 2.0, 2.0, 2.0]) @ q.T,
            q @ np.diag([-1.5, -1.5, -1.5, 0.0, 4.0]) @ q.T,
            np.eye(4),
            np.zeros((3, 3)),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
        ]
        flipped = 0
        for b in inputs:
            b = (b + b.T) / 2.0
            dec = eigh(SymMatrix(b))
            w, u = _eigh_raw(b)
            flipped += not np.array_equal(u, dec.eigenvectors)
            for f in (np.exp, lambda v: np.maximum(v, 0.0)):
                raw = (u * f(w)) @ u.T
                fixed = (dec.eigenvectors * f(dec.eigenvalues)) @ dec.eigenvectors.T
                assert raw.tobytes() == fixed.tobytes()
        # the comparison only means something where eigh did flip a column
        assert flipped >= 3

    def test_deterministic(self, rng):
        a = random_symmetric(rng, 6)
        d1, d2 = eigh(a), eigh(a)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


class TestLambdaMin:
    def test_identity(self):
        assert lambda_min(SymMatrix(np.eye(3))) == 1.0

    def test_diagonal(self):
        assert lambda_min(SymMatrix(np.diag([3.0, -2.0, 5.0]))) == -2.0

    def test_half_sum_of_anticommuting_pair(self):
        # closed form for [[.5, .5], [.5, -.5]]: +-sqrt(1/2)
        a = SymMatrix(np.array([[0.5, 0.5], [0.5, -0.5]]))
        lo, hi = eig2x2_closed_form(0.5, 0.5, -0.5)
        assert lo == -math.sqrt(0.5)
        assert lambda_min(a) == pytest.approx(lo, abs=1e-12)
        assert lambda_max(a) == pytest.approx(hi, abs=1e-12)

    def test_agrees_with_eigh(self, rng):
        for _ in range(10):
            a = random_symmetric(rng, 6)
            assert lambda_min(a) == eigh(a).eigenvalues[0]
            assert lambda_max(a) == eigh(a).eigenvalues[-1]

    def test_shift_covariance(self, rng):
        for _ in range(10):
            a = random_symmetric(rng, 5)
            c = float(rng.uniform(-3, 3))
            shifted = SymMatrix(a.array + c * np.eye(a.n))
            assert lambda_min(shifted) == pytest.approx(lambda_min(a) + c, abs=1e-10)


class TestIsPsd:
    def test_examples(self):
        assert is_psd(SymMatrix(np.eye(2)), 0.0)
        assert not is_psd(SymMatrix(np.diag([1.0, -1.0])), 0.0)
        assert is_psd(SymMatrix(np.diag([-1e-12, 1.0])), 1e-10)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            is_psd(SymMatrix(np.eye(2)), -1e-9)

    def test_diagonal_equivalence(self, rng):
        for _ in range(20):
            d = rng.uniform(-1, 1, 4)
            assert is_psd(SymMatrix(np.diag(d)), 0.0) == bool(d.min() >= 0.0)

