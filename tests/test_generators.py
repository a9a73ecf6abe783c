import io

import pytest
from fractions import Fraction

from lowdisc import (
    DigitalSequence,
    GeneratorMatrix,
    Halton,
    VanDerCorput,
    check_net,
    check_rank_condition,
    check_sequence_property,
    parse_spec,
    pascal_matrices,
    points,
)
from lowdisc.generators import read_points_csv, write_points_csv


def identity_matrices(p, s, size):
    eye = tuple(tuple(1 if i == j else 0 for j in range(size)) for i in range(size))
    return tuple(GeneratorMatrix(p, eye) for _ in range(s))


def test_vdc_first_points():
    got = [p.coords[0].as_fraction() for p in points(VanDerCorput(2), 4)]
    assert got == [Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]


def test_halton_point_example():
    assert Halton((2, 3)).point(5).as_fractions() == (Fraction(5, 8), Fraction(7, 9))


def test_halton_requires_coprime_bases():
    with pytest.raises(ValueError):
        Halton((2, 4))


def test_digital_identity_matches_vdc():
    spec = DigitalSequence(2, identity_matrices(2, 1, 8), 8)
    vdc = VanDerCorput(2)
    for n in range(8):
        assert spec.point(n).coords[0] == vdc.point(n).coords[0]


def test_digital_rejects_out_of_precision_index():
    spec = DigitalSequence(2, identity_matrices(2, 1, 4), 4)
    with pytest.raises(ValueError, match="digits"):
        spec.point(16)


def test_pascal_matrices_examples():
    assert pascal_matrices(2, 1, 3)[0].rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    mats = pascal_matrices(3, 2, 2)
    assert mats[0].rows == ((1, 0), (0, 1))
    assert mats[1].rows == ((1, 1), (0, 1))
    # third matrix is the square of the Pascal matrix mod 5
    assert pascal_matrices(5, 3, 2)[2].rows == ((1, 2), (0, 1))


def test_pascal_requires_s_at_most_p():
    with pytest.raises(ValueError):
        pascal_matrices(3, 4, 4)


def test_rank_condition_cases():
    assert check_rank_condition(identity_matrices(2, 1, 6), t=0, m=4)
    assert check_rank_condition(pascal_matrices(3, 2, 4), t=0, m=2)
    zeros = tuple(
        GeneratorMatrix(2, tuple(tuple(0 for _ in range(2)) for _ in range(2)))
        for _ in range(1)
    )
    assert not check_rank_condition(zeros, t=0, m=1)
    with pytest.raises(ValueError):
        check_rank_condition(identity_matrices(2, 1, 3), t=0, m=5)


def test_check_net_vdc_block():
    res = check_net(points(VanDerCorput(2), 8), b=2, t=0, m=3, s=1)
    assert res.ok and res.violation is None


def test_check_net_pascal_block():
    spec = DigitalSequence(3, tuple(pascal_matrices(3, 2, 6)), 6)
    assert check_net(points(spec, 9), b=3, t=0, m=2, s=2).ok


def test_check_net_duplicate_points_fail():
    origin = VanDerCorput(2).point(0)
    res = check_net([origin] * 8, b=2, t=0, m=3, s=1)
    assert not res.ok
    assert res.violation.count == 8 and res.violation.expected == 1
    assert res.violation.cell == (0,)


def test_check_net_wrong_count_rejected():
    with pytest.raises(ValueError):
        check_net(points(VanDerCorput(2), 7), b=2, t=0, m=3, s=1)


def test_vdc_is_01_sequence():
    assert check_sequence_property(VanDerCorput(2), b=2, t=0, s=1, k_max=3, m_max=4).ok


def test_pascal_is_02_sequence():
    spec = DigitalSequence(3, tuple(pascal_matrices(3, 2, 8)), 8)
    assert check_sequence_property(spec, b=3, t=0, s=2, k_max=2, m_max=2).ok


def test_halton_is_not_a_net_sequence():
    res = check_sequence_property(Halton((2, 3)), b=2, t=0, s=2, k_max=2, m_max=2)
    assert not res.ok
    assert res.violation is not None


def test_rank_condition_implies_block_nets():
    spec = DigitalSequence(3, tuple(pascal_matrices(3, 2, 6)), 6)
    for m in range(0, 3):
        assert check_rank_condition(spec.matrices, t=0, m=m)
    assert check_sequence_property(spec, b=3, t=0, s=2, k_max=3, m_max=2).ok


def test_halton_projection_is_vdc():
    h = Halton((2, 3))
    v2, v3 = VanDerCorput(2), VanDerCorput(3)
    for n in range(50):
        pt = h.point(n)
        assert pt.coords[0] == v2.point(n).coords[0]
        assert pt.coords[1] == v3.point(n).coords[1 - 1]


def test_point_csv_roundtrip_bit_exact():
    pts = points(Halton((2, 3)), 20)
    buf = io.StringIO()
    write_points_csv(buf, pts)
    buf.seek(0)
    back = read_points_csv(buf)
    assert len(back) == 20
    for (n, pt), orig in zip(back, pts):
        for got, want in zip(pt.coords, orig.coords):
            assert (got.num, got.base, got.prec) == (want.num, want.base, want.prec)


def test_points_csv_streams_from_any_iterable():
    pts = points(Halton((2, 3)), 7, start=5)
    from_list, from_generator = io.StringIO(), io.StringIO()
    write_points_csv(from_list, pts, 5)
    write_points_csv(from_generator, (p for p in pts), 5)
    assert from_generator.getvalue() == from_list.getvalue()
    with pytest.raises(ValueError, match="no points"):
        write_points_csv(io.StringIO(), iter([]))


def test_parse_spec_roundtrip():
    assert parse_spec("vdc:5") == VanDerCorput(5)
    assert parse_spec("halton:2,3") == Halton((2, 3))
    dig = parse_spec("pascal:3,2,6")
    assert isinstance(dig, DigitalSequence) and dig.precision == 6
    with pytest.raises(ValueError):
        parse_spec("sobol:2")
