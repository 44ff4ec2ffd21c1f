from fractions import Fraction

import pytest

from conftest import cached_complex, differential_kernel

from vorcycle.complexes import Differential, build_codim2
from vorcycle.homology import (
    TheoremReport,
    WrongGroupParity,
    canonical_cycle,
    compose_is_zero,
    dd_sanity,
    verify,
    verify_gl_even_vanishing,
    verify_top_cycle,
)


def test_canonical_cycle_coefficients(complex_sl2, complex_sl4):
    assert canonical_cycle(complex_sl2) == (Fraction(1, 6),)
    cyc = canonical_cycle(complex_sl4)
    orders = [complex_sl4.tops[i].stab_order for i in complex_sl4.kept_tops]
    assert cyc == tuple(Fraction(1, o) for o in orders)


def test_top_cycle_small_ranks(complex_sl2, complex_sl3, complex_gl3):
    for cx in (complex_sl2, complex_sl3, complex_gl3):
        report = verify_top_cycle(cx)
        assert report.kernel_dim == 1
        assert report.canonical_in_kernel
        assert report.kernel_spanned_by_canonical
        assert report.ok


def test_top_cycle_rank_four(complex_sl4):
    report = verify_top_cycle(complex_sl4)
    assert report.ok and report.kernel_dim == 1
    # Row certificates telescope to zero exactly.
    for row, terms in report.row_certificates:
        assert sum(v for _, _, _, v in terms) == 0
        for _, entry, order, value in terms:
            assert value == Fraction(entry, order)


def test_kernel_ratio_and_full_support(complex_sl4):
    kernel = differential_kernel(complex_sl4)
    assert len(kernel) == 1
    vec = kernel[0]
    assert all(x != 0 for x in vec)
    orders = [complex_sl4.tops[i].stab_order for i in complex_sl4.kept_tops]
    # lambda_sigma * |stab_sigma| constant across the walk graph.
    assert len({x * o for x, o in zip(vec, orders)}) == 1


def test_wrong_parity_raises(complex_gl2, complex_gl4):
    for cx in (complex_gl2, complex_gl4):
        with pytest.raises(WrongGroupParity):
            verify_top_cycle(cx)
    with pytest.raises(WrongGroupParity):
        verify_gl_even_vanishing(cached_complex(3, "gl"))


def test_gl_even_vanishing(complex_gl2, complex_gl4):
    for cx, classes in ((complex_gl2, 1), (complex_gl4, 2)):
        report = verify_gl_even_vanishing(cx)
        assert report.ok and report.kernel_dim == 0
        assert report.details["classes"] == classes
        assert report.details["kept_iff_in_det_one"]
        assert report.details["root_classes_excluded"]


def test_verify_dispatch(complex_sl4, complex_gl4):
    assert verify(complex_sl4).kernel_dim == 1
    assert verify(complex_gl4).kernel_dim == 0


def test_sl_gl_agree_in_odd_rank(complex_sl3, complex_gl3):
    rep_sl = verify_top_cycle(complex_sl3)
    rep_gl = verify_top_cycle(complex_gl3)
    assert rep_sl.kernel_dim == rep_gl.kernel_dim == 1
    assert rep_sl.ok and rep_gl.ok


def test_dd_sanity_small(complex_sl2, complex_sl3, complex_sl4):
    for cx in (complex_sl2, complex_sl3, complex_sl4):
        ok, _ = dd_sanity(cx)
        assert ok


def test_dd_composition_checker_and_mutation():
    # The checker itself: a genuine pair composing to zero, then a sign
    # corruption that must be caught.
    top = Differential(row_labels=("w0", "w1"), col_labels=("t0", "t1"),
                       entries=(((0, 0), 2), ((0, 1), -2),
                                ((1, 0), 1), ((1, 1), -1)))
    mid = Differential(row_labels=("c0",), col_labels=("w0", "w1"),
                       entries=(((0, 0), 1), ((0, 1), -2)))
    assert compose_is_zero(mid, top)
    corrupted = Differential(row_labels=("w0", "w1"),
                             col_labels=("t0", "t1"),
                             entries=(((0, 0), 2), ((0, 1), 2),
                                      ((1, 0), 1), ((1, 1), -1)))
    assert not compose_is_zero(mid, corrupted)


def test_codim2_level_boundary_free(complex_sl4):
    mids, kept, _ = build_codim2(complex_sl4)
    from vorcycle.cones import meets_boundary
    for m in mids:
        assert not meets_boundary(m.vectors)


def test_report_payload_round_values(complex_sl4):
    report = verify_top_cycle(complex_sl4)
    payload = report.to_payload()
    assert payload["kernel_dim"] == 1
    assert payload["canonical"] == [str(x) for x in report.canonical]
    assert payload["ok"] is True


def _apply_rows(diff, coeffs):
    """Reference: the weighted boundary, row by row."""
    return [sum(Fraction(v) * coeffs[c] for c, v in diff.row_entries(r))
            for r in range(diff.row_count)]


def _spans_same_line(vec_a, vec_b):
    """Reference: both nonzero and every 2x2 minor zero."""
    if len(vec_a) != len(vec_b):
        return False
    for i in range(len(vec_a)):
        for j in range(len(vec_a)):
            if vec_a[i] * vec_b[j] != vec_a[j] * vec_b[i]:
                return False
    return any(vec_a) and any(vec_b)


def _with_differential(cx, entries):
    diff = cx.differential
    return cx._replace(differential=Differential(
        row_labels=diff.row_labels, col_labels=diff.col_labels,
        entries=tuple(sorted(entries.items()))))


@pytest.mark.parametrize("mutation", (None, "flip", "zero", "extra",
                                      "clear"))
def test_top_cycle_matches_direct_line_test(complex_sl2, complex_sl3,
                                            complex_gl3, complex_sl4,
                                            mutation):
    # The verdict now comes from check_rigidity; the reference is the
    # direct computation on the differential that it replaced.
    for cx in (complex_sl2, complex_sl3, complex_gl3, complex_sl4):
        entries = dict(cx.differential.entries)
        if mutation and not entries:
            continue
        key = min(entries) if entries else None
        if mutation == "flip":
            entries[key] = -entries[key]
        elif mutation == "zero":
            del entries[key]
        elif mutation == "extra":
            entries[key] += 1
        elif mutation == "clear":
            # A zero row: the canonical chain stays in a kernel that is
            # no longer a line.
            entries.clear()
        cx = _with_differential(cx, entries)
        report = verify_top_cycle(cx)
        cycle = canonical_cycle(cx)
        kernel = differential_kernel(cx)
        in_kernel = all(x == 0 for x in _apply_rows(cx.differential, cycle))
        spanned = len(kernel) == 1 and _spans_same_line(
            [Fraction(x) for x in kernel[0]], list(cycle))
        assert report.kernel_dim == len(kernel)
        assert report.kernel_vectors == tuple(kernel)
        assert report.canonical == cycle
        assert report.canonical_in_kernel == in_kernel
        assert report.kernel_spanned_by_canonical == spanned
        assert report.ok == (in_kernel and spanned)
        assert report.ok == (mutation is None)
