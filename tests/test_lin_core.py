import io
import re

import numpy as np
import pytest

from cescov.errors import NotHermitian, NotPositiveDefinite, ZeroTrace
from cescov.lin_core import (
    _CSV_BLOCK,
    as_complex_matrix,
    centering_matrix,
    commutation_matrix,
    covariance_preset,
    dump_complex_matrix,
    hermitian_sqrt,
    hermitize,
    load_complex_matrix,
    mean_preset,
    parse_complex_matrix,
    save_complex_matrix,
    scale_and_sphericity,
    spiked_covariance,
    unvec,
    vec,
)

from util import random_complex, random_hpd


class TestVec:
    def test_identity(self):
        np.testing.assert_array_equal(vec(np.eye(2)), [1.0, 0.0, 0.0, 1.0])

    def test_column_stacking(self):
        gen = np.random.default_rng(0)
        a = random_complex(gen, 2, 2)
        np.testing.assert_array_equal(vec(a), np.concatenate([a[:, 0], a[:, 1]]))

    def test_index_convention(self):
        gen = np.random.default_rng(1)
        a = random_complex(gen, 3, 4)
        v = vec(a)
        for i in range(3):
            for j in range(4):
                assert v[j * 3 + i] == a[i, j]

    def test_unvec_roundtrip(self):
        gen = np.random.default_rng(2)
        a = random_complex(gen, 3, 5)
        np.testing.assert_array_equal(unvec(vec(a), 3, 5), a)

    def test_transpose_via_commutation(self):
        gen = np.random.default_rng(3)
        a = random_complex(gen, 3, 3)
        np.testing.assert_allclose(commutation_matrix(3) @ vec(a), vec(a.T), rtol=0, atol=0)


class TestCommutationMatrix:
    def test_p1(self):
        np.testing.assert_array_equal(commutation_matrix(1), [[1.0]])

    def test_p2_swaps_middle(self):
        k = commutation_matrix(2)
        expected = np.eye(4)[[0, 2, 1, 3]]
        np.testing.assert_array_equal(k, expected)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_defining_sum(self, p):
        total = np.zeros((p * p, p * p))
        eye = np.eye(p)
        for i in range(p):
            for j in range(p):
                eij = np.outer(eye[i], eye[j])
                total += np.kron(eij, eij.T)
        np.testing.assert_array_equal(commutation_matrix(p), total)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_permutation_and_involution(self, p):
        k = commutation_matrix(p)
        assert (k.sum(axis=0) == 1).all() and (k.sum(axis=1) == 1).all()
        np.testing.assert_array_equal(k @ k, np.eye(p * p))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_fixes_vec_identity(self, p):
        v = vec(np.eye(p))
        np.testing.assert_array_equal(commutation_matrix(p) @ v, v)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_vec_transpose_exhaustive(self, p):
        gen = np.random.default_rng(40 + p)
        a = random_complex(gen, p, p)
        np.testing.assert_array_equal(commutation_matrix(p) @ vec(a), vec(a.T))

    def test_rejects_p0(self):
        with pytest.raises(ValueError):
            commutation_matrix(0)


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_trace_product_hermitian(self):
        gen = np.random.default_rng(5)
        m = random_hpd(gen, 3)
        assert np.trace(np.kron(m.conj(), m)) == pytest.approx(np.trace(m).real ** 2, rel=1e-12)

    def test_mixed_product(self):
        gen = np.random.default_rng(6)
        a, b, c, d = (random_complex(gen, 2, 2) for _ in range(4))
        np.testing.assert_allclose(
            np.kron(a, b) @ np.kron(c, d), np.kron(a @ c, b @ d), rtol=1e-12, atol=1e-12
        )

    def test_vec_identity(self):
        gen = np.random.default_rng(7)
        a, b, x = (random_complex(gen, 3, 3) for _ in range(3))
        np.testing.assert_allclose(
            vec(b @ x @ a.T), np.kron(a, b) @ vec(x), rtol=1e-12, atol=1e-12
        )


class TestHermitianSqrt:
    def test_identity(self):
        np.testing.assert_allclose(hermitian_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            hermitian_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14
        )

    def test_reconstruction(self):
        gen = np.random.default_rng(8)
        for p in (2, 4, 8):
            m = random_hpd(gen, p)
            r = hermitian_sqrt(m)
            err = np.linalg.norm(r @ r - m) / np.linalg.norm(m)
            assert err < 1e-10
            np.testing.assert_array_equal(r, r.conj().T)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            hermitian_sqrt(np.diag([1.0, -1.0]))

    def test_rejects_near_singular(self):
        with pytest.raises(NotPositiveDefinite):
            hermitian_sqrt(np.diag([1.0, 1e-14]))

    def test_hermitize_rejects_asymmetric(self):
        with pytest.raises(NotHermitian):
            hermitize(np.array([[1.0, 2.0], [3.0, 1.0]]))

    def test_hermitize_rejects_a_non_square_matrix(self):
        with pytest.raises(ValueError, match=r"^matrix must be square, got shape \(2, 3\)$"):
            hermitize(np.ones((2, 3)))

    def test_as_complex_matrix_rejects_nan(self):
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            as_complex_matrix(np.array([[1.0, np.nan]]))

    def test_sqrt_transport_identities(self):
        # congruence by (M^1/2)* (x) M^1/2 maps I to M* (x) M and
        # vec(I)vec(I)^T to vec(M)vec(M)^H
        gen = np.random.default_rng(9)
        m = random_hpd(gen, 3)
        r = hermitian_sqrt(m)
        g = np.kron(r.conj(), r)
        np.testing.assert_allclose(g @ g, np.kron(m.conj(), m), rtol=0, atol=1e-10)
        v = vec(np.eye(3))
        lhs = g @ np.outer(v, v) @ g
        rhs = np.outer(vec(m), vec(m).conj())
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)


class TestCenteringMatrix:
    def test_vec_inner_product(self):
        h = centering_matrix(10)
        assert vec(h) @ vec(h) == pytest.approx(9.0, rel=1e-14)

    def test_sum_squared_diagonal(self):
        h = centering_matrix(10)
        assert np.sum(np.diag(h) ** 2) == pytest.approx(8.1, rel=1e-14)

    def test_annihilates_ones(self):
        h = centering_matrix(7)
        np.testing.assert_allclose(h @ np.ones(7), 0.0, atol=1e-14)

    def test_idempotent_and_trace(self):
        h = centering_matrix(6)
        np.testing.assert_allclose(h @ h, h, atol=1e-14)
        assert np.trace(h) == pytest.approx(5.0, rel=1e-14)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            centering_matrix(1)


class TestScaleAndSphericity:
    def test_scaled_identity(self):
        eta, gamma = scale_and_sphericity(3.5 * np.eye(4))
        assert eta == pytest.approx(3.5)
        assert gamma == pytest.approx(1.0)

    def test_rank_one(self):
        gen = np.random.default_rng(10)
        v = random_complex(gen, 5)
        _, gamma = scale_and_sphericity(np.outer(v, v.conj()))
        assert gamma == pytest.approx(5.0, rel=1e-12)

    def test_diagonal_example(self):
        eta, gamma = scale_and_sphericity(np.diag([1.0, 3.0]))
        assert eta == pytest.approx(2.0)
        assert gamma == pytest.approx(1.25)

    def test_scale_invariance(self):
        gen = np.random.default_rng(11)
        m = random_hpd(gen, 4)
        _, g1 = scale_and_sphericity(m)
        _, g2 = scale_and_sphericity(17.0 * m)
        assert g1 == pytest.approx(g2, rel=1e-12)

    def test_range(self):
        gen = np.random.default_rng(12)
        for p in (2, 3, 6):
            _, gamma = scale_and_sphericity(random_hpd(gen, p))
            assert 1.0 <= gamma <= p

    def test_zero_trace_rejected(self):
        with pytest.raises(ZeroTrace):
            scale_and_sphericity(np.zeros((3, 3)))


class TestComplexCsv:
    def test_roundtrip_exact(self, tmp_path):
        gen = np.random.default_rng(13)
        a = random_complex(gen, 7, 3) * np.pi
        big = 1.7976931348623157e308
        special = np.array(
            [[0.0 + 0.0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)],
             [5e-324 - 5e-324j, complex(big, -big), complex(-big, 1.0), complex(2.5, big)]]
        )
        for m in (a, special, special.T):  # special.T is not C-contiguous
            path = tmp_path / "m.csv"
            save_complex_matrix(path, m)
            back = load_complex_matrix(path)
            assert back.shape == m.shape
            # bit patterns, so signed zeros count
            np.testing.assert_array_equal(
                back.view(np.uint64), np.ascontiguousarray(m).view(np.uint64)
            )

    def test_header_and_shape_line(self, tmp_path):
        path = tmp_path / "m.csv"
        save_complex_matrix(path, np.eye(2))
        lines = path.read_text().splitlines()
        assert lines[0] == "# 2 2"
        assert lines[1] == "re_1,im_1,re_2,im_2"
        assert len(lines) == 4

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "not a prefix\nre_1,im_1\n1,0\n",
            "# 1\nre_1,im_1\n1,0\n",
            "# 1 1\nre_1\n1,0\n",
            "# 2 1\nre_1,im_1\n1,0\n",
            "# 1 1\nre_1,im_1\n1,0,5\n",
            "# 1 1\nre_1,im_1\nnan,0\n",
            "# 1 1\nre_1,im_1\n1,0\nextra,rows\n",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_complex_matrix(text.splitlines(True))

    @pytest.mark.parametrize(
        "lines, message", [(["# 0 3"], "shape must be positive, got 0 x 3"), (["# 2 1"], "missing header line")]
    )
    def test_bad_prefix_or_missing_header_is_named(self, lines, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_complex_matrix(lines)

    def test_huge_declared_row_count(self):
        # nothing is allocated from the header's row count
        with pytest.raises(ValueError, match=r"^expected 100000000000 data rows, found 1$"):
            parse_complex_matrix(["# 100000000000 1\n", "re_1,im_1\n", "1,0\n"])

    @pytest.mark.parametrize(
        "line, message",
        [
            ("1,0,5\n", f"row {_CSV_BLOCK + 2} has 3 fields, expected 2"),
            ("\n", f"row {_CSV_BLOCK + 2} has 1 fields, expected 2"),
            ("#1,0\n", f"row {_CSV_BLOCK + 2} holds a field that is not a number: '#1,0'"),
            ("1,\n", f"row {_CSV_BLOCK + 2} holds a field that is not a number: '1,'"),
            ("nan,0\n", f"row {_CSV_BLOCK + 2} contains non-finite entries"),
            # float() accepts digit separators; numpy's reader, and so the format, does not
            ("1_0,0\n", f"row {_CSV_BLOCK + 2} holds a field that is not a number: '1_0,0'"),
        ],
    )
    def test_bad_row_in_a_later_block_is_named(self, line, message):
        rows = ["2.5,-1\n"] * (_CSV_BLOCK + 3)
        rows[_CSV_BLOCK + 1] = line
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_complex_matrix([f"# {len(rows)} 1\n", "re_1,im_1\n", *rows])

    @pytest.mark.parametrize(
        "declared, lines, message",
        [
            (_CSV_BLOCK + 2, _CSV_BLOCK + 1, f"expected {_CSV_BLOCK + 2} data rows, found {_CSV_BLOCK + 1}"),
            (_CSV_BLOCK + 1, _CSV_BLOCK + 2, f"trailing non-empty lines after the {_CSV_BLOCK + 1} declared rows"),
        ],
    )
    def test_row_count_checked_past_the_first_block(self, declared, lines, message):
        text = [f"# {declared} 1\n", "re_1,im_1\n", *["2.5,-1\n"] * lines]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_complex_matrix(text)

    def test_crlf_and_spaces_around_fields(self):
        text = "# 2 2\r\nre_1,im_1,re_2,im_2\r\n 1.5 ,-0.0, 2,3 \r\n4 , 5,6,  -7e-3\r\n"
        back = parse_complex_matrix(text.splitlines(True))
        expected = np.array([[complex(1.5, -0.0), 2 + 3j], [4 + 5j, 6 - 7e-3j]])
        np.testing.assert_array_equal(back.view(np.uint64), expected.view(np.uint64))

    def test_dump_bytes_are_the_per_row_repr_lines(self):
        gen = np.random.default_rng(5)
        big = 1.7976931348623157e308
        m = random_complex(gen, 2 * _CSV_BLOCK + 7, 3) * 10.0 ** gen.integers(-300, 300, (2 * _CSV_BLOCK + 7, 3))
        m[:4] = [[complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)],
                 [5e-324, complex(0.0, -5e-324), complex(big, -big)],
                 [-big, complex(1.0, big), 2.5],
                 [1e16, 1e-5, complex(1 / 3, 123456789.123)]]
        for a in (m, np.asfortranarray(m), m[::-1]):  # the last two are not C-contiguous
            f = io.StringIO()
            dump_complex_matrix(f, a)
            rows = np.ascontiguousarray(a).view(np.float64)
            expected = [f"# {a.shape[0]} 3", "re_1,im_1,re_2,im_2,re_3,im_3"]
            expected += [",".join(map(repr, row.tolist())) for row in rows]
            assert f.getvalue() == "\n".join(expected) + "\n"
            back = parse_complex_matrix(io.StringIO(f.getvalue()))
            np.testing.assert_array_equal(back.view(np.uint64), rows.view(np.uint64))


class TestPresets:
    """The values of ``--cov`` and ``--mu``."""

    def test_identity(self):
        m = covariance_preset("identity", 3)
        assert m.dtype == np.complex128
        np.testing.assert_array_equal(m, np.eye(3))

    def test_diag(self):
        np.testing.assert_array_equal(covariance_preset("diag:1,2.5,3", 3), np.diag([1.0, 2.5, 3.0]))

    def test_spiked(self):
        np.testing.assert_array_equal(covariance_preset("spiked:gamma=2", 10), spiked_covariance(10, 2.0))

    def test_csv_file(self, tmp_path):
        m = random_hpd(np.random.default_rng(5), 3)
        path = tmp_path / "cov.csv"
        save_complex_matrix(path, m)
        np.testing.assert_array_equal(covariance_preset(str(path), 3), m)

    @pytest.mark.parametrize("spec, p, message", [
        ("diag:1,x", 2, "cannot parse --cov 'diag:1,x'"),
        ("diag:1,2", 3, "conflicting flags: --cov diag has 2 entries but --p is 3"),
        ("diag:1,0", 2, "--cov diag entries must be positive"),
        ("spiked:gamma=x", 3, "cannot parse --cov 'spiked:gamma=x'"),
        ("spiked:gamma=3", 3, "spiked preset needs 1 <= gamma < p = 3, got gamma = 3.0"),
    ])
    def test_cov_spec_errors(self, spec, p, message):
        with pytest.raises(ValueError) as e:
            covariance_preset(spec, p)
        assert str(e.value) == message

    def test_cov_file_errors(self, tmp_path):
        missing, bad, square = tmp_path / "missing.csv", tmp_path / "bad.csv", tmp_path / "eye.csv"
        bad.write_text("not,a,matrix\n")
        save_complex_matrix(square, np.eye(2))
        with pytest.raises(ValueError, match=r"^cannot read --cov file '.*missing\.csv': \[Errno 2\]"):
            covariance_preset(str(missing), 2)
        with pytest.raises(ValueError, match=r"^malformed --cov file '.*bad\.csv': first line must be"):
            covariance_preset(str(bad), 2)
        with pytest.raises(ValueError) as e:
            covariance_preset(str(square), 3)
        assert str(e.value) == "conflicting flags: --cov file is 2 x 2 but --p is 3"

    def test_mean_zero(self):
        mu = mean_preset("zero", 4)
        assert mu.dtype == np.complex128
        np.testing.assert_array_equal(mu, np.zeros(4))

    @pytest.mark.parametrize("shape", [(1, 3), (3, 1)])
    def test_mean_file(self, tmp_path, shape):
        mu = np.array([1.0 + 2j, -0.5, 3j]).reshape(shape)
        path = tmp_path / "mu.csv"
        save_complex_matrix(path, mu)
        np.testing.assert_array_equal(mean_preset(str(path), 3), mu.ravel())

    def test_mean_file_errors(self, tmp_path):
        missing, bad, wide = tmp_path / "missing.csv", tmp_path / "bad.csv", tmp_path / "mu.csv"
        bad.write_text("not,a,matrix\n")
        save_complex_matrix(wide, np.ones((1, 3)))
        with pytest.raises(ValueError, match=r"^cannot read --mu file '.*missing\.csv': \[Errno 2\]"):
            mean_preset(str(missing), 3)
        with pytest.raises(ValueError, match=r"^malformed --mu file '.*bad\.csv': first line must be"):
            mean_preset(str(bad), 3)
        with pytest.raises(ValueError) as e:
            mean_preset(str(wide), 2)
        assert str(e.value) == "conflicting flags: --mu file has shape (1, 3) but --p is 2"
