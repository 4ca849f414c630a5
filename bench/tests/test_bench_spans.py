import importlib
from collections import Counter

import pytest

from spans import PATCHES, WORKERS, Tracer, self_times, summarise


def _span(sid, parent, start, end, name="x"):
    return ((0, sid), None if parent is None else (0, parent), name, start, end)


def test_self_time_nested_and_back_to_back_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),  # back-to-back with span 2
        _span(2, 0, 3.0, 6.0),
        _span(3, 1, 1.5, 2.5),  # nested one level deeper
    ]
    own = self_times(spans)
    assert own[(0, 0)] == pytest.approx(5.0)
    assert own[(0, 1)] == pytest.approx(1.0)
    assert own[(0, 2)] == pytest.approx(3.0)
    assert own[(0, 3)] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    # Children in two worker processes run at the same time.
    spans = [
        ((1, 0), None, "sweep", 0.0, 10.0),
        ((2, 0), (1, 0), "worker", 1.0, 5.0),
        ((3, 0), (1, 0), "worker", 2.0, 6.0),
        ((3, 1), (1, 0), "worker", 9.0, 12.0),  # clipped to the parent's end
    ]
    assert self_times(spans)[(1, 0)] == pytest.approx(10.0 - 5.0 - 1.0)


def test_wrappers_record_parents_and_counts(tmp_path):
    tracer = Tracer(tmp_path)
    calls = []

    def leaf(x):
        calls.append(x)
        return x

    traced_leaf = tracer.wrap("leaf", leaf, hook=lambda counts, *_: counts.update(["leaf"]))
    outer = tracer.wrap("outer", lambda: [traced_leaf(1), traced_leaf(2)])
    assert outer() == [1, 2]
    by_name = {}
    for sid, parent, name, start, end in tracer.spans:
        by_name.setdefault(name, []).append((sid, parent))
        assert end >= start
    (outer_sid, outer_parent), = by_name["outer"]
    assert outer_parent is None
    assert [parent for _, parent in by_name["leaf"]] == [outer_sid, outer_sid]
    assert tracer.counts == Counter(leaf=2)
    assert summarise(tracer.spans)["leaf"]["calls"] == 2


def test_uninstall_restores_every_patched_attribute():
    targets = [(m, a) for m, a, *_ in PATCHES] + [(m, a) for m, a, _ in WORKERS]
    modules = {m: importlib.import_module(f"fairfront.{m}") for m, _ in targets}
    before = {(m, a): getattr(modules[m], a) for m, a in targets}
    tracer = Tracer("unused")
    with tracer.installed():
        for (m, a), original in before.items():
            assert getattr(modules[m], a) is not original
            assert getattr(modules[m], a).__wrapped__ is original
        with pytest.raises(RuntimeError):
            Tracer("unused").install()
    for (m, a), original in before.items():
        assert getattr(modules[m], a) is original
