import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gfs.linalg import (
    ROOT_RESIDUAL_TOL,
    DegenerateNodes,
    complex_principal_sqrt,
    count_distinct,
    polynomial_roots,
    solve_least_squares,
    solve_transposed_vandermonde,
    vandermonde_matrix,
)

PI = math.pi


def two_sine_jumps(k1=0.5, k2=1.2, q=8):
    """Even-order endpoint jumps of sin(k1 x) + sin(k2 x) on [-pi, pi]."""
    J = []
    for m in range(0, q, 2):
        J.append(2 * ((-k1 ** 2) ** (m // 2) * math.sin(k1 * PI)
                      + (-k2 ** 2) ** (m // 2) * math.sin(k2 * PI)))
    return J


class TestSolveLeastSquares:
    def test_identity(self):
        A = np.eye(2, dtype=complex)
        x, rank = solve_least_squares(A, np.array([3.0, 4.0j]))
        assert rank == 2
        np.testing.assert_allclose(x, [3.0, 4.0j])

    def test_rank_one_minimum_norm(self):
        A = np.ones((2, 2), dtype=complex)
        x, rank = solve_least_squares(A, np.array([2.0, 2.0], dtype=complex))
        assert rank == 1
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)

    def test_two_sine_symmetric_polys(self):
        # Hankel of even jumps of a two-mode sine sum recovers the
        # elementary symmetric polynomials of the squared wavenumbers.
        J0, J2, J4, J6 = two_sine_jumps()
        A = np.array([[J0, J2], [J2, J4]], dtype=complex)
        b = -np.array([J4, J6], dtype=complex)
        x, rank = solve_least_squares(A, b)
        assert rank == 2
        np.testing.assert_allclose(x.real, [0.36, 1.69], atol=1e-12)
        np.testing.assert_allclose(x.imag, 0, atol=1e-13)

    def test_zero_matrix(self):
        x, rank = solve_least_squares(np.zeros((3, 3), dtype=complex),
                                      np.ones(3, dtype=complex))
        assert rank == 0
        np.testing.assert_array_equal(x, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_least_squares(np.eye(2, dtype=complex), np.ones(3, dtype=complex))

    @given(st.integers(2, 8), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_residual_on_well_conditioned(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 3 * np.eye(n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        x, rank = solve_least_squares(A, b)
        assert rank == n
        cond = np.linalg.cond(A)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b) * cond


class TestPolynomialRoots:
    def test_monic_linear(self):
        np.testing.assert_allclose(polynomial_roots(np.array([-1.0, 1.0])), [1.0])

    def test_quadratic(self):
        roots = np.sort_complex(polynomial_roots(np.array([0.36, -1.69, 1.0])))
        np.testing.assert_allclose(roots, [0.25, 1.44], atol=1e-12)

    def test_conjugate_pair(self):
        roots = polynomial_roots(np.array([1.0, 0.0, 1.0]))
        assert set(np.round(roots, 10)) == {1j, -1j}

    def test_zero_leading_coefficient(self):
        with pytest.raises(ValueError):
            polynomial_roots(np.array([1.0, 1.0, 0.0]))

    def test_bad_roots_raise_naming_the_first(self):
        # two huge roots are fine; the two small ones come out as exact
        # zeros, where the residual is |c_0| = 8e32
        c = np.array([8e32, -7e31, -7e30, 1e-16, -1e-39])
        roots = np.roots(c[::-1])
        bad = []
        for i, r in enumerate(roots):  # per-root reference check
            residual = abs(np.polyval(c[::-1], r))
            bound = ROOT_RESIDUAL_TOL * np.max(np.abs(c)) * max(1.0, abs(r)) ** (c.size - 1)
            if residual > bound:
                bad.append((i, residual, bound))
        assert len(bad) >= 2
        i, residual, bound = bad[0]
        with pytest.raises(ArithmeticError) as exc:
            polynomial_roots(c)
        assert str(exc.value) == f"root {i} residual {residual:.3e} exceeds bound {bound:.3e}"

    @given(st.lists(st.floats(-4, 4), min_size=1, max_size=12), st.floats(0.25, 4), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_equals_numpy_roots(self, low, lead, imaginary, seed):
        # numpy.roots keeps the coefficients' type, and so does the companion here
        c = np.array(low + [lead])
        if imaginary:
            c = c + 1j * np.random.default_rng(seed).uniform(-4, 4, c.size)
        try:
            roots = polynomial_roots(c)
        except ArithmeticError:
            assume(False)
        np.testing.assert_array_equal(roots, np.roots(c[::-1]))

    def test_real_roots_of_a_real_polynomial_are_complex(self):
        # the real companion's eigvals alone would return float64 here
        roots = polynomial_roots(np.array([-1.0, 0.0, 1.0]))
        assert roots.dtype == np.complex128
        np.testing.assert_array_equal(np.sort_complex(roots), [-1.0, 1.0])

    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=6, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_from_roots(self, roots):
        coeffs = np.poly(roots)[::-1]
        got = np.sort(polynomial_roots(coeffs).real)
        np.testing.assert_allclose(got, np.sort(roots), atol=1e-6)


class TestTransposedVandermonde:
    def test_single_node(self):
        w = solve_transposed_vandermonde(np.array([1.0 + 0j]), np.array([5.0 + 0j]))
        np.testing.assert_allclose(w, [5.0])

    def test_two_sine_amplitudes(self):
        # rhs holds the first two even jumps of sin(0.5x) + sin(1.2x);
        # the solution is 2 sin(k pi) per mode, i.e. unit amplitudes.
        J0, J2 = two_sine_jumps()[:2]
        nodes = np.array([-0.25, -1.44], dtype=complex)
        w = solve_transposed_vandermonde(nodes, np.array([J0, J2], dtype=complex))
        expected = [2 * math.sin(0.5 * PI), 2 * math.sin(1.2 * PI)]
        np.testing.assert_allclose(w.real, expected, atol=1e-12)

    def test_duplicate_nodes(self):
        with pytest.raises(DegenerateNodes):
            solve_transposed_vandermonde(np.array([-0.25, -0.25], dtype=complex),
                                         np.array([1.0, 2.0], dtype=complex))

    def test_matrix_layout(self):
        nodes = np.array([2.0, 3.0], dtype=complex)
        V = vandermonde_matrix(nodes)
        np.testing.assert_allclose(V, [[1, 1], [2, 3]])


class TestPrincipalSqrt:
    def test_positive_real(self):
        assert complex_principal_sqrt(4.0) == 2.0

    def test_negative_real_axis(self):
        assert complex_principal_sqrt(-1.0) == 1j

    def test_first_quadrant(self):
        np.testing.assert_allclose(complex_principal_sqrt(2j), 1 + 1j, atol=1e-15)

    @given(st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=60, deadline=None)
    def test_square_recovers_input(self, re, im):
        z = complex(re, im)
        s = complex_principal_sqrt(z)
        np.testing.assert_allclose(s * s, z, atol=1e-9 * (1 + abs(z)))
        assert s.real >= -1e-15


def test_count_distinct():
    assert count_distinct(np.array([1.0, 1.0 + 1e-12, 2.0])) == 2
    assert count_distinct(np.array([1.0, 2.0, 3.0])) == 3


# ---------------------------------------------------------------------------
# A stack gives each member the bits, or the exception, that the member gets
# alone: numpy runs stacked LAPACK calls and elementwise ufuncs member by
# member, and a stack that fails raises the first failing member's error.

# Distinct nodes base * (1 + step j), j < n, whose Vandermonde matrix LAPACK
# reports singular: the direct solve fails and the pseudoinverse takes over.
SINGULAR_NODES = {3: (1e15, 1.01e-8), 4: (1e58, 2.02e-8), 5: (1e25, 1.01e-8)}


def parts(out):
    return tuple(map(np.asarray, out if isinstance(out, tuple) else (out,)))


def outcome(f, *args):
    """The bytes of every output array, or the exception's type and message."""
    try:
        out = parts(f(*args))
    except Exception as exc:
        return type(exc), str(exc)
    return tuple((a.dtype, a.shape, a.tobytes()) for a in out)


def assert_stack_equals_members(f, *stacks):
    """f on the stacks equals f on each member, bit for bit, or raises the first member's error."""
    members = [outcome(f, *member) for member in zip(*stacks)]
    errors = [m for m in members if isinstance(m[0], type)]
    if errors:
        assert outcome(f, *stacks) == errors[0]
        return
    stacked = parts(f(*stacks))
    for i, member in enumerate(members):
        assert tuple((a.dtype, a.shape[1:], a[i].tobytes()) for a in stacked) == member, i


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def stack_of(kinds):
    return st.lists(st.sampled_from(kinds), min_size=1, max_size=4)


class TestStackEqualsMembers:
    @given(stack_of(["full", "rank_deficient", "zero", "real"]), st.integers(1, 5),
           st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_solve_least_squares(self, kinds, m, k, seed):
        rng = np.random.default_rng(seed)
        A = random_complex(rng, (len(kinds), m, k)) * 10.0 ** rng.uniform(-3, 3)
        for i, kind in enumerate(kinds):
            if kind == "rank_deficient":
                r = int(rng.integers(0, min(m, k)))
                A[i] = random_complex(rng, (m, r)) @ random_complex(rng, (r, k))
            elif kind == "zero":
                A[i] = 0.0
            elif kind == "real":
                A[i] = A[i].real
        b = random_complex(rng, (len(kinds), m))
        assert_stack_equals_members(solve_least_squares, A, b)
        if "rank_deficient" in kinds or "zero" in kinds:
            assert min(solve_least_squares(A, b)[1]) < min(m, k)

    @given(stack_of(["generic", "zero_constant", "zero_roots"]), st.integers(1, 6), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_polynomial_roots(self, kinds, n, real, seed):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((len(kinds), n + 1)) * 10.0 ** rng.uniform(-2, 2, (len(kinds), 1))
        if not real:
            c = c + 1j * rng.standard_normal(c.shape)
        for i, kind in enumerate(kinds):
            if kind == "zero_constant":
                c[i, 0] = 0.0  # one zero root
            elif kind == "zero_roots":
                c[i, :int(rng.integers(1, n + 1))] = 0.0  # as many zero roots
        assert_stack_equals_members(polynomial_roots, c)

    def test_polynomial_roots_raise_the_first_failing_row(self):
        # the bad row's two small roots come out as exact zeros (see above)
        bad = np.array([8e32, -7e31, -7e30, 1e-16, -1e-39])
        good = np.poly([0.5, 1.5, -2.0, 3.0])[::-1]
        for rows in ([good, bad], [bad, good], [bad, 2 * bad]):
            assert_stack_equals_members(polynomial_roots, np.array(rows))
        with pytest.raises(ArithmeticError):
            polynomial_roots(np.array([good, bad]))

    @given(stack_of(["generic", "singular", "duplicate"]), st.sampled_from(sorted(SINGULAR_NODES)),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_solve_transposed_vandermonde(self, kinds, n, seed):
        rng = np.random.default_rng(seed)
        nodes = random_complex(rng, (len(kinds), n)) * 10.0 ** rng.uniform(-1, 1, (len(kinds), 1))
        for i, kind in enumerate(kinds):
            if kind == "singular":
                base, step = SINGULAR_NODES[n]
                nodes[i] = base * (1 + step * np.arange(n))
            elif kind == "duplicate":
                nodes[i, 1] = nodes[i, 0]
        rhs = random_complex(rng, (len(kinds), n))
        assert_stack_equals_members(solve_transposed_vandermonde, nodes, rhs)

    def test_singular_member_alone_takes_the_pseudoinverse(self, monkeypatch):
        base, step = SINGULAR_NODES[3]
        nodes = np.array([[-0.25, -1.44, -3.1], base * (1 + step * np.arange(3))], dtype=complex)
        rhs = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]], dtype=complex)
        pseudoinverse = []
        real = solve_least_squares
        monkeypatch.setattr("gfs.linalg.solve_least_squares",
                            lambda A, b: pseudoinverse.append(np.shape(A)) or real(A, b))
        w = solve_transposed_vandermonde(nodes, rhs)
        assert pseudoinverse == [(3, 3)]
        np.testing.assert_array_equal(w[0], np.linalg.solve(vandermonde_matrix(nodes[0]), rhs[0]))

    @given(st.lists(st.tuples(st.sampled_from([-4.0, -1.0, -0.0, 0.0, 2.0, 1e-300, 3.7]),
                              st.sampled_from([-0.0, 0.0, -2.5, 1e-300, 1.0])),
                    min_size=1, max_size=12), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_complex_principal_sqrt(self, values, rows):
        z = np.array([complex(re, im) for re, im in values] * rows).reshape(rows, -1)
        assert_stack_equals_members(complex_principal_sqrt, z)

    def test_vandermonde_matrix_as_numpy_vander(self):
        nodes = random_complex(np.random.default_rng(7), (3, 5))
        for row, V in zip(nodes, vandermonde_matrix(nodes)):
            assert V.tobytes() == np.vander(row, 5, increasing=True).T.copy().tobytes()
