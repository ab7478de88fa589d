"""The benchmark's layer tracer still finds every attribute it swaps.

``benchmarks/inproc.py`` times the layers by replacing module attributes
(``engine.check_instance``, ``datalog.parse_program`` ...) with timing
wrappers.  If one of them is renamed or stops being called through, the
traced benchmark breaks or silently reports zero; this test fails instead.
"""

import sys
from pathlib import Path

from aspcheck import cli

from _support import fixture_text

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

# Every layer _patch_layers wraps, as the tracer names it.
TRACED = [
    "schema.load_spec", "diagnostics.render_report", "schema.check_spec",
    "datalog.parse_program", "datalog.evaluate", "engine.finalize",
    "hooks.parse_script", "engine.check_instance", "terms.sort_key",
    "terms.render", "hooks.eval_instance",
]


def test_traced_cli_run_reaches_every_patched_layer(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # keep benchmarks/ clean
    import inproc
    from tracing import Tracer

    spec = tmp_path / "knight.yaml"
    spec.write_text(fixture_text("knight.yaml"))
    data = tmp_path / "moves.lp"
    data.write_text("size(8).\ngivenmove(1,1,2,3).\ngivenmove(2,3,9,4).\n")

    tracer = Tracer()
    inproc._patch_layers(tracer)
    try:
        code = cli.main(["validate", str(spec), str(data)])
    finally:
        tracer.restore()

    assert code == 1
    assert "Value out of bound in givenmove(2,3,9,4): 9" in capsys.readouterr().out
    assert {name: tracer.calls(name) > 0 for name in TRACED} == dict.fromkeys(TRACED, True)
    # The CLI parses its input once and the spec's asp once; the input's
    # facts are not rules, so only the spec's 8 rules are counted.  The spec
    # is checked twice (load_spec, then run).
    assert tracer.calls("datalog.parse_program") == 2
    assert tracer.counters["datalog.parse_program.rules"] == 8
    assert tracer.calls("schema.check_spec") == 2
