import numpy as np
import pytest

from ccx.rng import Rng
from ccx.tensor_io import FormatError, read_cct1, write_cct1


class TestRng:
    def test_same_seed_bit_identical(self):
        a = Rng(123).normal((100,))
        b = Rng(123).normal((100,))
        assert a.tobytes() == b.tobytes()

    def test_fork_independent_of_order(self):
        r = Rng(9)
        x = r.fork("a").uniform((10,))
        r2 = Rng(9)
        r2.uniform((50,))  # consume from the parent first
        y = r2.fork("a").uniform((10,))
        assert x.tobytes() == y.tobytes()

    def test_uniform_range(self):
        u = Rng(5).uniform((10000,))
        assert (u >= 0).all() and (u < 1).all()
        assert abs(u.mean() - 0.5) < 0.02

    def test_normal_moments(self):
        z = Rng(6).normal((20000,), std=2.0)
        assert abs(z.mean()) < 0.05
        assert abs(z.std() - 2.0) < 0.05

    def test_randint_bounds(self):
        r = Rng(7)
        vals = [r.randint(5) for _ in range(1000)]
        assert set(vals) == {0, 1, 2, 3, 4}

    def test_shuffle_deterministic(self):
        assert Rng(8).shuffle(range(20)) == Rng(8).shuffle(range(20))


class TestCCT1:
    def test_round_trip(self, tmp_path):
        arr = Rng(1).normal((3, 4, 2)).astype(np.float32).astype(np.float64)
        p = tmp_path / "t.cct1"
        write_cct1(p, arr)
        back = read_cct1(p)
        assert back.shape == (3, 4, 2)
        np.testing.assert_array_equal(back, arr)

    def test_write_is_f32_lossy_but_stable(self, tmp_path):
        arr = np.array([1.0 / 3.0])
        p = tmp_path / "t.cct1"
        write_cct1(p, arr)
        first = p.read_bytes()
        write_cct1(p, read_cct1(p))
        assert p.read_bytes() == first

    def test_header_layout(self, tmp_path):
        p = tmp_path / "t.cct1"
        write_cct1(p, np.zeros((2, 3)))
        blob = p.read_bytes()
        assert blob[:4] == b"CCT1"
        assert blob[4] == 2
        assert blob[5:13] == (2).to_bytes(4, "little") + (3).to_bytes(4, "little")
        assert len(blob) == 13 + 4 * 6

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39, -1e39])
    def test_non_finite_refused_before_writing(self, tmp_path, bad):
        p = tmp_path / "t.cct1"
        with pytest.raises(FormatError, match="non-finite"):
            write_cct1(p, np.array([[1.0, 2.0], [bad, 3.0]]))
        assert not p.exists()

    def test_float32_max_is_written(self, tmp_path):
        p = tmp_path / "t.cct1"
        top = float(np.finfo(np.float32).max)
        write_cct1(p, np.array([top, -top]))
        np.testing.assert_array_equal(read_cct1(p), [top, -top])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.cct1"
        p.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(FormatError, match="magic"):
            read_cct1(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.cct1"
        write_cct1(p, np.zeros((4,)))
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(FormatError, match="payload"):
            read_cct1(p)
