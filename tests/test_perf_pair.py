"""The per-metric verdict of ``tools/perf_pair.py`` on synthetic paired runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "perf_pair.py"
_spec = importlib.util.spec_from_file_location("perf_pair", _PATH)
perf_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pair)

#: Ten base runs around 1.0 with quartiles 0.985..1.015 (IQR 0.03).
BASE = [0.97, 0.98, 0.985, 0.99, 1.0, 1.0, 1.01, 1.015, 1.02, 1.03]


def _verdict(change, base=BASE, *, lower=True, bound=0.24):
    return perf_pair.verdict(base, change, lower=lower, bound=bound)


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_iqr():
    assert _verdict([b - 0.1 for b in BASE]) == "gain"
    # nine of ten pairs won is enough, eight is not
    nine = [b - 0.1 for b in BASE[:9]] + [BASE[9] + 0.01]
    assert _verdict(nine) == "gain"
    eight = [b - 0.1 for b in BASE[:8]] + [b + 0.01 for b in BASE[8:]]
    assert _verdict(eight) == "holds"
    # every pair won, but the medians differ by less than the base IQR
    assert _verdict([b - 0.01 for b in BASE]) == "holds"


def test_ties_count_for_neither_side():
    tied = list(BASE[:2]) + [b - 0.1 for b in BASE[2:]]
    assert _verdict(tied) == "holds"


def test_higher_is_better_metrics_mirror_the_rule():
    assert _verdict([b + 0.1 for b in BASE], lower=False) == "gain"
    assert _verdict([b - 0.1 for b in BASE], lower=False) == "holds"
    assert _verdict([b * 0.7 for b in BASE], lower=False) == "worse"


def test_worse_past_the_bound_only():
    assert _verdict([b * 1.3 for b in BASE]) == "worse"
    assert _verdict([b * 1.2 for b in BASE]) == "holds"
    assert _verdict([b * 1.2 for b in BASE], bound=0.1) == "worse"


@pytest.mark.parametrize("lower", (True, False))
def test_unresolved_when_the_base_spreads_past_the_bound(lower):
    wide = [0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.3, 1.4, 1.5]
    assert _verdict(list(wide), base=wide, lower=lower, bound=0.1) == "unresolved"
    # unless every change run beats every base run
    step = -1.1 if lower else 1.1
    beats = [b + step for b in wide]
    assert _verdict(beats, base=wide, lower=lower, bound=0.1) in ("gain", "holds")
    assert _verdict(beats, base=wide, lower=lower, bound=0.1) != "unresolved"
