import math

import numpy as np
import pytest

from amrbeam import (
    make_custom,
    make_psk,
    make_qam,
)


def test_qam4_points_and_dmin():
    c = make_qam(4)
    expected = {(s1 + 1j * s2) / math.sqrt(2) for s1 in (-1, 1) for s2 in (-1, 1)}
    got = {complex(round(p.real, 12), round(p.imag, 12)) for p in c.points}
    assert got == {complex(round(e.real, 12), round(e.imag, 12)) for e in expected}
    assert c.d_min == pytest.approx(math.sqrt(2), abs=1e-12)


def test_qam16_normalization():
    # raw {+-1, +-3}^2 grid has average energy 10, so the scale is 1/sqrt(10)
    c = make_qam(16)
    assert c.order == 16
    assert abs(np.mean(c.points)) < 1e-12
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert c.d_min == pytest.approx(2.0 / math.sqrt(10), abs=1e-12)


@pytest.mark.parametrize("bad", [8, 32, 36, 2, 1, 0, -4])
def test_qam_rejects_bad_orders(bad):
    with pytest.raises(ValueError):
        make_qam(bad)


def test_psk_examples():
    c2 = make_psk(2)
    assert sorted(c2.points, key=lambda p: p.real) == pytest.approx([-1.0, 1.0])
    assert c2.d_min == pytest.approx(2.0)
    c4 = make_psk(4)
    assert c4.d_min == pytest.approx(math.sqrt(2))
    got = {complex(round(p.real, 12), round(p.imag, 12)) for p in c4.points}
    assert got == {1, 1j, -1, -1j}
    with pytest.raises(ValueError):
        make_psk(1)


@pytest.mark.parametrize("make,order", [(make_qam, 4), (make_qam, 16), (make_qam, 64),
                                        (make_psk, 2), (make_psk, 3), (make_psk, 8)])
def test_generated_invariants(make, order):
    c = make(order)
    assert abs(np.mean(c.points)) < 1e-12
    assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12
    assert c.d_min > 0.0
    assert c.order == order
    assert len(set(map(complex, np.round(c.points, 12)))) == order


def test_psk4_is_rotated_qam4():
    q = make_qam(4)
    p = make_psk(4)
    # align by a global rotation and compare as sets
    rot = q.points[0] / abs(q.points[0])
    rotated = sorted(p.points * rot, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    target = sorted(q.points, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    assert np.allclose(rotated, target, atol=1e-12)
    assert p.d_min == pytest.approx(q.d_min, abs=1e-12)


def test_custom_renormalization_flag():
    # a normalized alphabet is kept; any other is moved to the convention
    clean = make_custom([1 + 0j, -1 + 0j], label="pm1")
    assert np.array_equal(clean.points, [1 + 0j, -1 + 0j])
    shifted = make_custom([1.3 + 0.2j, -0.7 + 0.2j], label="shifted")
    assert np.allclose(shifted.points, [1 + 0j, -1 + 0j], atol=1e-12)
    assert abs(np.mean(shifted.points)) < 1e-12
    assert np.mean(np.abs(shifted.points) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_custom_rejects_degenerate():
    with pytest.raises(ValueError):
        make_custom([1 + 1j])
    with pytest.raises(ValueError):
        make_custom([1 + 1j, 1 + 1j])
