"""The comparison of two runs that may differ in last bits, which CI runs
on a smoke run at a lower numpy SIMD level."""

import json
import math

from ulp_diff import compare, main, ulps

HEADER = "experiment,param_json,j,mean,stderr,trials,target,z,verdict\n"


def _run(path, mean=1.5469506455491326, verdict="INFO", rate=3.0):
    path.mkdir()
    params = json.dumps({"jump_rate": rate, "law": "pareto"}).replace('"', '""')
    row = f'exit_tail,"{params}",,{mean!r},0.0,500,1.5,,{verdict}\n'
    (path / "results.csv").write_text(HEADER + row, encoding="utf-8")
    summary = {"verdicts": {"exit_tail": verdict}, "counts": {verdict: 1}, "run_id": str(path)}
    (path / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    return path


def test_ulps():
    assert ulps(1.0, 1.0) == 0
    assert ulps(1.0, math.nextafter(1.0, 2.0)) == 1
    assert ulps(-0.0, 0.0) == 0
    assert ulps(-5e-324, 5e-324) == 2
    assert ulps(math.nextafter(-1.0, 0.0), -1.0) == 1


def test_last_bit_differences_are_printed_not_failed(tmp_path, capsys):
    a = _run(tmp_path / "a")
    b = _run(tmp_path / "b", mean=1.5469506455491324, rate=math.nextafter(3.0, 4.0))
    bad, diffs = compare(a, b)
    assert bad == []
    assert diffs == [
        "line 2 exit_tail param_json.jump_rate: 3.0 vs 3.0000000000000004, 1 ulp",
        "line 2 exit_tail mean: 1.5469506455491326 vs 1.5469506455491324, 1 ulp",
    ]
    assert main([str(a), str(b)]) == 0
    assert "2 numeric fields differ" in capsys.readouterr().out


def test_a_verdict_that_differs_fails(tmp_path, capsys):
    a = _run(tmp_path / "a")
    b = _run(tmp_path / "b", verdict="PASS")
    bad, _ = compare(a, b)
    assert len(bad) == 3  # the row's verdict, summary verdicts and counts
    assert main([str(a), str(b)]) == 1
    assert "MISMATCH line 2 verdict: 'INFO' != 'PASS'" in capsys.readouterr().out
    assert main([str(a)]) == 2
