import json

import compare
from fingerprint import fingerprint_mismatch

FP = {"python": "3.11.7", "numpy": "2.4.6", "cpu_count": 2}


def _report(tmp_path, name, fingerprint, sweep_s):
    doc = {
        "workload": "w",
        "trace": 0,
        "fingerprint": fingerprint,
        "result": {"metrics": {"sweep_s": {"value": sweep_s, "unit": "s"}}},
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_fingerprint_mismatch_names_the_fields():
    assert fingerprint_mismatch([FP, dict(FP)]) == []
    assert fingerprint_mismatch([FP, dict(FP, cpu_count=4)]) == ["cpu_count"]


def test_compare_refuses_different_fingerprints(tmp_path, capsys):
    base = _report(tmp_path, "a.json", FP, 10.0)
    new = _report(tmp_path, "b.json", dict(FP, numpy="1.26.4"), 9.0)
    assert compare.main([base, new]) == 2
    assert "numpy" in capsys.readouterr().err


def test_compare_flags_a_regression_beyond_the_bound(tmp_path):
    base = _report(tmp_path, "a.json", FP, 10.0)
    new = _report(tmp_path, "b.json", FP, 20.0)
    assert compare.main([base, base]) == 0
    assert compare.main([base, new]) == 1
