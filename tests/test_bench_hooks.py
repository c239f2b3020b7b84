"""The benchmark's tracer still finds every program name it hooks.

``perfbench/layers.py`` measures layers by wrapping names such as
``ContentAccumulator.add`` and ``ramyip._walk_term_raw``, and its observers
unpack their arguments.  A rename or a changed call shape makes those
per-layer metrics drop out of a traced run, so this test loads the tracer
(read-only, by path), runs a small ``compute`` under it and checks that every
hook resolved, no observer broke and the exact counts come out.
"""

import contextlib
import importlib.util
import io
import json
import math
import sys
from pathlib import Path

from macdonald.chain import Partition, build_chain
from macdonald.cli import main

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    # registered, as an import would, so a traced worker can pickle its Stats
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve_and_count_walk_terms(tmp_path):
    tracer = _load_layers().Tracer(tmp_path)
    assert tracer.absent == []
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["compute", "--lambda", "2,1,0", "--formula", "ram-yip",
                         "--jobs", "1"])
    finally:
        tracer.uninstall()
    assert code == 0
    stats = tracer.collect()
    assert stats.broken == set()
    pairs = (1 << build_chain(Partition((2, 1, 0))).m) * math.factorial(3)
    assert stats.calls["ramyip._walk_term_raw"] == pairs
    assert stats.calls["qt.ContentAccumulator.add"] == pairs


def test_tracer_counts_filling_terms_and_reaches_the_count(tmp_path):
    tracer = _load_layers().Tracer(tmp_path)
    assert tracer.absent == []
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            compute = main(["compute", "--lambda", "3,2,1,0", "--formula",
                            "compressed", "--jobs", "1"])
            count = main(["count", "--lambda", "3,2,1,0", "--jobs", "1"])
    finally:
        tracer.uninstall()
    assert (compute, count) == (0, 0)
    assert out.getvalue().splitlines()[-1] == "288"
    stats = tracer.collect()
    assert stats.broken == set()
    assert stats.calls["fillings._term_raw"] == 288
    assert stats.calls["qt.ContentAccumulator.add"] == 288
    assert stats.calls["fillings._count_values"] >= 1


def test_tracer_sees_the_per_class_check(tmp_path):
    tracer = _load_layers().Tracer(tmp_path)
    assert tracer.absent == []
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["verify", "--lambda", "3,2,1,0", "--per-class"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert json.loads(out.getvalue())["ok"] is True
    stats = tracer.collect()
    assert stats.broken == set()
    assert stats.calls["compression.group_fibers"] == 1
    assert (stats.pairs, stats.fibers) == (384, 288)
    assert stats.calls["compression.class_sum"] == 288
    assert stats.calls["ramyip._walk_term_raw"] == 384


def test_tracer_sees_every_oracle_stage(tmp_path):
    from macdonald import oracle

    # cold caches, as each benchmark op runs: one transition, one inverse
    oracle.monomial_in_powers.cache_clear()
    oracle.power_in_monomials.cache_clear()
    tracer = _load_layers().Tracer(tmp_path)
    assert tracer.absent == []
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["verify", "--oracle", "--lambda", "3,2,1,0",
                         "--seed", "0"])
    finally:
        tracer.uninstall()
    assert code == 0
    report = json.loads(out.getvalue())
    assert report["ok"] is True
    points = sum(c["name"].startswith("oracle@") for c in report["checks"])
    assert points == 3
    stats = tracer.collect()
    assert stats.broken == set()
    assert stats.calls["oracle.power_in_monomials"] == 1
    assert stats.calls["oracle._invert"] == 1
    assert stats.calls["oracle._solve"] == points
