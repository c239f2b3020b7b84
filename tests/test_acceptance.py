"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every expected value here was recomputed by hand from the defining formulas
(or taken from the reference term-count table) before being frozen.
"""

import contextlib
import io
import json
import os

import pytest

from macdonald.chain import Partition, build_chain
from macdonald.cli import main
from macdonald.compression import filling_map, verify_all_classes
from macdonald.fillings import compressed_sum, shape_of
from macdonald.oracle import check_specializations
from macdonald.qt import RationalQT, rational_one
from macdonald.ramyip import _fold_data, _walk_term_raw, classify_folds, ram_yip_sum
from macdonald.weyl import all_perms

MAX_JOBS = max(2, os.cpu_count() or 2)


def run_main(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def regular_shapes(max_width=None, max_n=4, max_size=None):
    """All regular partitions within the given bounds, smallest n first."""
    out = []

    def extend(prefix, n_left, smallest):
        if n_left == 0:
            parts = tuple(sorted(prefix, reverse=True)) + (0,)
            if max_size is None or sum(parts) <= max_size:
                out.append(parts)
            return
        for v in range(smallest + 1, (max_width or 99) + 1):
            if max_size is not None and sum(prefix) + v > max_size:
                break
            extend(prefix + [v], n_left - 1, v)

    for n in range(2, max_n + 1):
        extend([], n - 1, 0)
    return sorted(set(out), key=lambda p: (len(p), p))


TABLE_EXPECT = [
    ("(3, 2, 1, 0)", "4", "288", "1.3", "3.0"),
    ("(5, 3, 1, 0)", "4", "10,368", "4.7", "3.0"),
    ("(4, 3, 2, 1, 0)", "5", "34,560", "3.6", "7.5"),
    ("(5, 4, 2, 1, 0)", "5", "552,960", "14.2", "7.5"),
]


@pytest.fixture(scope="module")
def table_runs():
    runs = {}
    for jobs in (1, MAX_JOBS):
        code, out = run_main(["table", "--jobs", str(jobs)])
        assert code == 0
        runs[jobs] = out
    return runs


def parse_table(out):
    rows = []
    for line in out.splitlines()[1:]:
        fields = line.rsplit(None, 4)
        rows.append((fields[0].rstrip(),) + tuple(fields[1:]))
    return rows


def test_criterion_1_table_reproduction(table_runs):
    rows = parse_table(table_runs[1])
    assert rows == TABLE_EXPECT
    print("\ncriterion 1 PASS: table rows t/c/r match the reference values "
          "exactly, recomputed from scratch")


def test_criterion_2_chain_fidelity():
    chain = build_chain(Partition((4, 3, 1, 0)))
    assert [e.root for e in chain] == [
        (1, 4), (1, 3), (2, 4), (2, 3), (1, 4), (1, 3), (2, 4), (1, 4)
    ]
    assert [(col, start, stop) for col, start, stop in chain.segments] == [
        (4, 0, 2), (3, 2, 6), (2, 6, 8)
    ]
    lengths = {
        (4, 3, 1, 0): 8,
        (5, 3, 1, 0): 11,
        (4, 3, 2, 1, 0): 10,
        (5, 4, 2, 1, 0): 16,
    }
    for parts, m in lengths.items():
        assert build_chain(Partition(parts)).m == m
    print("criterion 2 PASS: chain reproduces the worked factorization; "
          "m = 8, 11, 10, 16 on the table shapes")


def test_criterion_3_worked_example_fidelity():
    lam = Partition((4, 3, 1, 0))
    chain = build_chain(lam)
    cf = classify_folds((2, 3, 4, 1), {1, 4, 6, 7}, chain)
    assert cf.plus == {1, 7} and cf.minus == {4, 6}
    assert cf.perms == (
        (2, 3, 4, 1), (1, 3, 4, 2), (1, 4, 3, 2), (3, 4, 1, 2), (3, 2, 1, 4)
    )
    sigma = filling_map((2, 3, 4, 1), [1, 4, 6, 7], lam)
    assert sigma.render() == "2 1 3 3\n3 4 2\n1"
    assert {c: sigma[c] for c in shape_of(lam.parts).cells} == {
        (1, 1): 3, (2, 1): 2, (3, 1): 1,
        (1, 2): 3, (2, 2): 4,
        (1, 3): 1, (2, 3): 3,
        (1, 4): 2,
    }
    print("criterion 3 PASS: fold signs, Bruhat chain, and image filling "
          "match the worked example")


def test_criterion_4_cross_formula_equality():
    shapes = regular_shapes(max_width=4, max_n=4)
    assert (3, 2, 1, 0) in shapes and (4, 3, 2, 0) in shapes
    for parts in shapes:
        lam = Partition(parts)
        assert ram_yip_sum(lam, lam.n) == compressed_sum(lam, lam.n), parts
    print(f"criterion 4 PASS: walk and filling formulas agree exactly on "
          f"{len(shapes)} shapes (width <= 4, n <= 4)")


def test_criterion_5_per_class_compression():
    cases = [((3, 2, 1, 0), 4, 288), ((2, 1, 0), 3, None), ((2, 0), 2, None)]
    for parts, n, expected_classes in cases:
        lam = Partition(parts)
        report = verify_all_classes(lam, n)
        assert report.ok, report.first_failure
        assert not report.missing_fillings
        if expected_classes is not None:
            assert len(report.classes) == expected_classes
        m = build_chain(lam).m
        fact = 1
        for k in range(2, n + 1):
            fact *= k
        assert report.total_pairs == (1 << m) * fact
    print("criterion 5 PASS: every fiber sums to its filling term; fibers "
          "partition the folding-pair space (288/288 classes on (3,2,1,0))")


def test_criterion_6_hand_derived_closed_form():
    lam = Partition((2, 0))
    middle = RationalQT(
        {(0, 0): 1, (1, 0): 1, (0, 1): -1, (1, 1): -1}, [(1, 1)]
    )  # (1+q)(1-t)/(1-qt)
    expected = {
        (2, 0): rational_one(),
        (0, 2): rational_one(),
        (1, 1): middle,
    }
    assert ram_yip_sum(lam, 2) == expected
    assert compressed_sum(lam, 2) == expected
    print("criterion 6 PASS: both formulas give m_2 + (1+q)(1-t)/(1-qt) m_11 "
          "for the two-box row")


def test_criterion_7_oracle_agreement():
    shapes = regular_shapes(max_n=4, max_size=7)
    assert (7, 0) in shapes and (4, 2, 1, 0) in shapes
    for parts in shapes:
        lam = Partition(parts)
        P = compressed_sum(lam, lam.n)
        report = check_specializations(P, lam, lam.n, seed=20240811)
        assert report.ok, (parts, [(c.name, c.detail)
                                   for c in report.checks if not c.ok])
    print(f"criterion 7 PASS: oracle and Schur specializations agree exactly "
          f"on {len(shapes)} shapes (|lambda| <= 7, n <= 4)")


def test_criterion_8_property_suites():
    # fold parity and content identity, exhaustively for width <= 3, n <= 4
    small = regular_shapes(max_width=3, max_n=4)
    pairs_checked = 0
    for parts in small:
        lam = Partition(parts)
        chain = build_chain(lam)
        for w in all_perms(lam.n):
            for mask in range(1 << chain.m):
                folds = [p for p in range(1, chain.m + 1)
                         if mask >> (p - 1) & 1]
                num, den, content = _walk_term_raw(w, _fold_data(folds, chain))
                sigma = filling_map(w, folds, lam)
                assert content == sigma.content(), (parts, w, folds)
                pairs_checked += 1
    # multiplicity-arm identity on every chain position of all test shapes
    for parts in regular_shapes(max_width=4, max_n=4) + [
        (5, 3, 1, 0), (4, 3, 2, 1, 0), (5, 4, 2, 1, 0)
    ]:
        lam = Partition(parts)
        for e in build_chain(lam):
            assert e.mult == lam.parts[e.root[0] - 1] - (e.column - 1)
    # symmetry and monicity of every computed expansion
    from macdonald.oracle import _symmetry_failures

    for parts in regular_shapes(max_width=4, max_n=4):
        lam = Partition(parts)
        P = compressed_sum(lam, lam.n)
        assert P[lam.parts] == rational_one()
        assert not _symmetry_failures(P, lam.n)
    print(f"criterion 8 PASS: fold parity + content identity on "
          f"{pairs_checked} pairs; multiplicity = arm everywhere; all "
          f"expansions symmetric and monic")


def test_criterion_9_determinism(table_runs):
    assert table_runs[1] == table_runs[MAX_JOBS]
    for argv in (
        ["compute", "--lambda", "4,3,1,0", "-n", "4", "--formula", "ram-yip",
         "--out", "json"],
        ["compute", "--lambda", "4,3,1,0", "-n", "4", "--formula",
         "compressed", "--out", "json"],
        ["compute", "--lambda", "3,2,1,0", "-n", "4", "--formula", "ram-yip",
         "--out", "text"],
        ["verify", "--lambda", "3,2,1,0", "-n", "4", "--per-class"],
    ):
        outs = []
        for jobs in (1, MAX_JOBS):
            code, out = run_main(argv + ["--jobs", str(jobs)])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1], argv
    print(f"criterion 9 PASS: byte-identical output with 1 and {MAX_JOBS} "
          f"worker processes for table, compute, and per-class verify")
