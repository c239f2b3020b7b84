"""Golden bytes: SHA-256 of ``compute`` stdout on the small regular shapes.

Both formulas print one canonical reduced form per coefficient, and that form
depends on lifting every term to exactly the shared denominator before the
single reduction in ``finalize``.  The hashes were recorded with the earlier
dict-based accumulator, so any change to lifting, reduction or rendering
that alters a byte shows here.  The ram-yip JSON of the benchmark's two walk
shapes, (5,3,1,0) and (5,4,2,0), was recorded at commit 0351681, before walk
terms were built from fold plans.  The compressed output of the fill shape
(5,4,2,1,0) was recorded at commit b93be5d, before ``finalize`` reduced and
the emitter rendered each distinct coefficient once.  The ``verify`` pins
(the oracle at seeded, explicit, pole and singular points, and the per-class
report of the benchmark's shape) were recorded at commit 1ed5ead, before the
oracle's elimination ran on integer rows.  The ``--map-properties`` reports
and the per-class failure reports under two corruptions (every filling term
times 7; the walk terms of one two-pair fiber negated) were recorded at
commit 23cd5c5, before the per-class check ran in one pass over the column
walk and its class results kept only their verdicts.
"""

import contextlib
import hashlib
import io

import pytest

import macdonald.compression as compression
from macdonald.chain import Partition
from macdonald.cli import main
from macdonald.ramyip import FoldingPair

GOLDEN = {
    ((4, 0), "ram-yip", "json"): "f7744688115a99dea9dc754d737717e1efba3653e1fe3f2de6ec6ebce5086fa4",
    ((4, 0), "ram-yip", "text"): "61ebc4fdb4d6b802dd4562d36572fd078e4f0bb70e44367bebf19ec927c274b0",
    ((4, 0), "compressed", "json"): "f7744688115a99dea9dc754d737717e1efba3653e1fe3f2de6ec6ebce5086fa4",
    ((4, 0), "compressed", "text"): "61ebc4fdb4d6b802dd4562d36572fd078e4f0bb70e44367bebf19ec927c274b0",
    ((3, 0), "ram-yip", "json"): "becb6814a7dea7e0ef48b9f270aa2f2864842da6028c02b0b2d46fe348d66819",
    ((3, 0), "ram-yip", "text"): "9d49bf67c811a8dddd855cea7facc30247d1396448ddf3abc8fc478c2893b6ae",
    ((3, 0), "compressed", "json"): "becb6814a7dea7e0ef48b9f270aa2f2864842da6028c02b0b2d46fe348d66819",
    ((3, 0), "compressed", "text"): "9d49bf67c811a8dddd855cea7facc30247d1396448ddf3abc8fc478c2893b6ae",
    ((2, 0), "ram-yip", "json"): "e44c365b778fbdafac3c5cbb4b3733e0aa93f4c73a33426a0bf6f6ac17a9d83c",
    ((2, 0), "ram-yip", "text"): "9196100d65c24d6b25c39b00e3db5a95d65a25d7d29463b3eb3e73dd776a30be",
    ((2, 0), "compressed", "json"): "e44c365b778fbdafac3c5cbb4b3733e0aa93f4c73a33426a0bf6f6ac17a9d83c",
    ((2, 0), "compressed", "text"): "9196100d65c24d6b25c39b00e3db5a95d65a25d7d29463b3eb3e73dd776a30be",
    ((1, 0), "ram-yip", "json"): "5e502b3f385c7cc5cb0b3b3d770fdcc49014b7ef6f1261dd660ebc751d3c19b3",
    ((1, 0), "ram-yip", "text"): "6bd4f3818e467ffc708695c672fd828d55f8fe70dd2a985365fe6976feae5cc4",
    ((1, 0), "compressed", "json"): "5e502b3f385c7cc5cb0b3b3d770fdcc49014b7ef6f1261dd660ebc751d3c19b3",
    ((1, 0), "compressed", "text"): "6bd4f3818e467ffc708695c672fd828d55f8fe70dd2a985365fe6976feae5cc4",
    ((4, 3, 0), "ram-yip", "json"): "ca10da2c5d8626da3b190a1ccdb46c2cd5ca425134cdfb5c276aff915eb1523c",
    ((4, 3, 0), "ram-yip", "text"): "e0fcd7087f7666c8727f9089c7324773959bc9f28429b82aaa7fc78540d71390",
    ((4, 3, 0), "compressed", "json"): "ca10da2c5d8626da3b190a1ccdb46c2cd5ca425134cdfb5c276aff915eb1523c",
    ((4, 3, 0), "compressed", "text"): "e0fcd7087f7666c8727f9089c7324773959bc9f28429b82aaa7fc78540d71390",
    ((4, 2, 0), "ram-yip", "json"): "793ae97a16310da08846eaf314345e3ec0e92f17f8481021ac8cccb4dfb0622e",
    ((4, 2, 0), "ram-yip", "text"): "d95ed4864649de04f529004372bc29134cf976341f689b6b979e22ef2c6231b0",
    ((4, 2, 0), "compressed", "json"): "793ae97a16310da08846eaf314345e3ec0e92f17f8481021ac8cccb4dfb0622e",
    ((4, 2, 0), "compressed", "text"): "d95ed4864649de04f529004372bc29134cf976341f689b6b979e22ef2c6231b0",
    ((4, 1, 0), "ram-yip", "json"): "8e9f81aa5aa70e9bd78b325e50e72b7aa95b93c6a96b4229d513d38cc0a67099",
    ((4, 1, 0), "ram-yip", "text"): "827c155491924ff2c176adb95998e0327b896ae14bedc7d0c937fdc59d057a6d",
    ((4, 1, 0), "compressed", "json"): "8e9f81aa5aa70e9bd78b325e50e72b7aa95b93c6a96b4229d513d38cc0a67099",
    ((4, 1, 0), "compressed", "text"): "827c155491924ff2c176adb95998e0327b896ae14bedc7d0c937fdc59d057a6d",
    ((3, 2, 0), "ram-yip", "json"): "2a327e3c7eedfa31bb42412bf17bd2e61a178edd62bfc9ffce4898ce3c36f24f",
    ((3, 2, 0), "ram-yip", "text"): "8bdd8b253566549a1fde565da0fb607646e8960aa6ceff6427ef42fa330096c5",
    ((3, 2, 0), "compressed", "json"): "2a327e3c7eedfa31bb42412bf17bd2e61a178edd62bfc9ffce4898ce3c36f24f",
    ((3, 2, 0), "compressed", "text"): "8bdd8b253566549a1fde565da0fb607646e8960aa6ceff6427ef42fa330096c5",
    ((3, 1, 0), "ram-yip", "json"): "177ae44416f65144912ba8ff256098152c94505b8223ee0667ca76fb6de6abd5",
    ((3, 1, 0), "ram-yip", "text"): "b7bcf32b996740073029d9ddf0689cca45eb8dfbab7727b51347565e5f90d9fd",
    ((3, 1, 0), "compressed", "json"): "177ae44416f65144912ba8ff256098152c94505b8223ee0667ca76fb6de6abd5",
    ((3, 1, 0), "compressed", "text"): "b7bcf32b996740073029d9ddf0689cca45eb8dfbab7727b51347565e5f90d9fd",
    ((2, 1, 0), "ram-yip", "json"): "f128f80b4488534cde29ed31488db056e398a85b0cb2d2a96cb75fc1b6478b3d",
    ((2, 1, 0), "ram-yip", "text"): "bdfb46c01bbcc892ad76bce4148cbb01759b4b26a34515eefd005066cdbfe9f3",
    ((2, 1, 0), "compressed", "json"): "f128f80b4488534cde29ed31488db056e398a85b0cb2d2a96cb75fc1b6478b3d",
    ((2, 1, 0), "compressed", "text"): "bdfb46c01bbcc892ad76bce4148cbb01759b4b26a34515eefd005066cdbfe9f3",
    ((4, 3, 2, 0), "ram-yip", "json"): "6513a19a51eb99ade1c3a9b7e29f8335166d1650c4a114109b613f720000d96a",
    ((4, 3, 2, 0), "ram-yip", "text"): "a52d6054eac8dee2f883ce6257d37ca6811957154b18523ce83adcae9b2a0ad6",
    ((4, 3, 2, 0), "compressed", "json"): "6513a19a51eb99ade1c3a9b7e29f8335166d1650c4a114109b613f720000d96a",
    ((4, 3, 2, 0), "compressed", "text"): "a52d6054eac8dee2f883ce6257d37ca6811957154b18523ce83adcae9b2a0ad6",
    ((4, 3, 1, 0), "ram-yip", "json"): "ec08d4cdf39a307281d25cc300b19dc91f657517b4e8d5d32d76b83fa8051bce",
    ((4, 3, 1, 0), "ram-yip", "text"): "3c538e1c4cef07a5647e334fcd8a7da3e91d5442ab56b6e03a064179f92f149f",
    ((4, 3, 1, 0), "compressed", "json"): "ec08d4cdf39a307281d25cc300b19dc91f657517b4e8d5d32d76b83fa8051bce",
    ((4, 3, 1, 0), "compressed", "text"): "3c538e1c4cef07a5647e334fcd8a7da3e91d5442ab56b6e03a064179f92f149f",
    ((4, 2, 1, 0), "ram-yip", "json"): "70630ebd72abbafef29d47911aafce7f275de11459fc1bb17c818e25c8b4c237",
    ((4, 2, 1, 0), "ram-yip", "text"): "92f739b6ffb1a277afedf05508b494c2d27a2a7645b100002d956a4844c7439e",
    ((4, 2, 1, 0), "compressed", "json"): "70630ebd72abbafef29d47911aafce7f275de11459fc1bb17c818e25c8b4c237",
    ((4, 2, 1, 0), "compressed", "text"): "92f739b6ffb1a277afedf05508b494c2d27a2a7645b100002d956a4844c7439e",
    ((3, 2, 1, 0), "ram-yip", "json"): "37ddc89b07259016839f1d2a528f0ae42b6cba67049e569003fad8969de9f154",
    ((3, 2, 1, 0), "ram-yip", "text"): "cbf79774f2db0b2e8f55ba69133e47794d05103d576589fe78210a15dc5f6954",
    ((3, 2, 1, 0), "compressed", "json"): "37ddc89b07259016839f1d2a528f0ae42b6cba67049e569003fad8969de9f154",
    ((3, 2, 1, 0), "compressed", "text"): "cbf79774f2db0b2e8f55ba69133e47794d05103d576589fe78210a15dc5f6954",
    # the two shapes of the benchmark's walk workload
    ((5, 3, 1, 0), "ram-yip", "json"): "f11d5a25d470dfeea919401049f96b9caa7292e157e5b884565d46df49c530dc",
    ((5, 4, 2, 0), "ram-yip", "json"): "a14890c0c31643a24c11c34692bce2926f5b8534bacf18fb334daef8e2fe01bc",
    ((4, 3, 2, 1, 0), "compressed", "json"): "aafaac15f1ced0a1cfa9d2024f62eb96454b4590fdd95d8bac58f35203275c8a",
    ((4, 3, 2, 1, 0), "compressed", "text"): "a335cd1812bbd54e3c5d48040b5dffdfc48d9fc3f942c02032e9870bdf7cf042",
    # the shape of the benchmark's fill workload; the JSON is ref/fill-5_4_2_1_0
    ((5, 4, 2, 1, 0), "compressed", "json"): "e75d697b21f635ed0e214cd1379643cd9309d23af1931a4c3be2a44d6f37b652",
    ((5, 4, 2, 1, 0), "compressed", "text"): "06316701a3723a0b75398e56a9ba62c888c8a877999d914bb227a1dc4144f64b",
}


@pytest.mark.parametrize("parts,formula,out", sorted(GOLDEN))
def test_compute_stdout_matches_golden_hash(parts, formula, out):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["compute", "--lambda", ",".join(map(str, parts)),
                     "--formula", formula, "--out", out, "--jobs", "1"])
    assert code == 0
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == GOLDEN[(parts, formula, out)]


VERIFY_GOLDEN = {
    ("--oracle", "--lambda", "4,3,2,1,0", "--seed", "0"):
        ("4a7523f649f7173f84d4a9ddf2bf7fd8c39821ab2f6d3798000bcfe9bec5b45b", 0),
    ("--oracle", "--lambda", "4,3,2,1,0", "--seed", "1"):
        ("7861422095fa20dfc9158fc930cb96720c1fc6f9bfa58325428cac1bf3a7fd16", 0),
    ("--oracle", "--lambda", "4,3,2,1,0", "--seed", "2"):
        ("b7e2c789689d9290db43eb547460049a954833ff8f0a8e145f325f18dcb83a2b", 0),
    ("--oracle", "--lambda", "4,3,2,1,0", "--seed", "3"):
        ("cf5a5956efe4519c8f3d454aa48349431305917b3e83a6b6d460057a0932876d", 0),
    ("--oracle", "--lambda", "4,3,2,1,0", "--q", "2/3", "--t", "5/7"):
        ("1f00cd6f3ec23879016845061a1473bb04248e378d103ec629bf2b4d8882c0be", 0),
    # a pole: 1 - t0^10 vanishes
    ("--oracle", "--lambda", "4,3,2,1,0", "--q", "-2/3", "--t", "-1"):
        ("3e64ce4c42dd09bef5e1ca434f1d85b67ef36187fd7a7d95e546a4fea6c8961a", 1),
    # q0 = 1 zeroes the Gram matrix
    ("--oracle", "--lambda", "4,3,2,1,0", "--q", "1", "--t", "1/2"):
        ("da7fa62fafafd2a50bcfa933223f8fcca1ee7587273a7835e60cc22d570c092f", 1),
    ("--per-class", "--lambda", "5,2,1,0"):
        ("ac08abc8ef02d02884633e7344c7c4ad7127afae11b21e6dd222086545e6af41", 0),
    ("--map-properties", "--lambda", "3,2,1,0"):
        ("f56ff7e7d69e521117d2b662e9b1df3956847e59b41ff3e6916aa9e60c9dc450", 0),
    ("--map-properties", "--lambda", "5,3,1,0"):
        ("ba8fc268f95589dc779baf594915d19af0beace48581ececd84acce2c373e2ac", 0),
    ("--map-properties", "--lambda", "4,3,2,1,0"):
        ("52716fe0e72aace228f0f96bcce424dec4ee268002bb95c4e60c6a00cec5c612", 0),
}


@pytest.mark.parametrize("args", sorted(VERIFY_GOLDEN))
def test_verify_stdout_and_exit_code_match_golden(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", *args])
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert (digest, code) == VERIFY_GOLDEN[args]


def _filling_terms_times_7(monkeypatch):
    real = compression._term_raw

    def corrupted(table, total):
        num, den, content = real(table, total)
        return {m: 7 * c for m, c in num.items()}, den, content

    monkeypatch.setattr(compression, "_term_raw", corrupted)


def _two_pair_fiber_negated(monkeypatch):
    pairs = list(compression.group_fibers(Partition((3, 2, 1, 0)), 4)[
        (1, 2, 3, 1, 2, 4)])
    real = compression._walk_term_raw

    def corrupted(w, plan):
        num, den, content = real(w, plan)
        if FoldingPair(w, frozenset(plan.folds)) in pairs:
            num = {m: -c for m, c in num.items()}
        return num, den, content

    monkeypatch.setattr(compression, "_walk_term_raw", corrupted)


FAILURE_GOLDEN = {
    _filling_terms_times_7:
        ("4a65d845824860fad429adc323e75d106ca7343e0dd5a91b11ccc414a11c527d", 1),
    _two_pair_fiber_negated:
        ("98df2dc0d2fba2ed4c32467213b829d11121d449d5e1dd74b424a43eaac69761", 1),
}


@pytest.mark.parametrize("corrupt", list(FAILURE_GOLDEN),
                         ids=lambda corrupt: corrupt.__name__.strip("_"))
def test_per_class_failure_report_matches_golden(monkeypatch, corrupt):
    corrupt(monkeypatch)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", "--per-class", "--lambda", "3,2,1,0"])
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert (digest, code) == FAILURE_GOLDEN[corrupt]
