"""In-process legs of the benchmark, run in a child interpreter.

    python3 inproc.py lib   SPEC DATA FLAGS_JSON
    python3 inproc.py trace SPEC DATA FLAGS_JSON SPANS_OUT

``lib`` times the README library path (load_spec, parse_facts, run,
render_report) once, after the imports, in an otherwise idle interpreter.
``trace`` runs ``aspcheck.cli.main`` untraced, then traced, then the
library path traced, and reports per-layer metrics.  Both print one JSON
object; the outputs they produced are included so the caller can check
them against the oracle.  The caller sets PYTHONPATH to the code under test.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import sys
import time

from aspcheck import cli, datalog, diagnostics, engine, hooks, schema, terms

from tracing import Tracer

EXIT_OF_VERDICT = {"valid": 0, "invalid": 1}


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _printed(rendered: str) -> str:
    """What the CLI writes to stdout for a rendered report."""
    return rendered + "\n" if rendered else ""


def lib_path(spec_text: str, data_text: str, flags: list[str], call=lambda name, fn: fn):
    """The README path; ``call`` may wrap each step (tracing)."""
    fmt = "jsonl" if "jsonl" in flags else "text"
    spec = call("schema.load_spec", schema.load_spec)(spec_text)
    facts = call("terms.parse_facts", terms.parse_facts)(data_text)
    options = engine.RunOptions(fail_fast="--all-errors" not in flags)
    report = call("engine.run", engine.run)(spec, facts, options)
    rendered = call("diagnostics.render_report", diagnostics.render_report)(report, fmt)
    return facts, report, rendered


def run_lib(spec_path: str, data_path: str, flags: list[str]) -> dict:
    spec_text, data_text = _read(spec_path), _read(data_path)
    gc.collect()
    start = time.perf_counter()
    _, report, rendered = lib_path(spec_text, data_text, flags)
    lib_s = time.perf_counter() - start
    return {"lib_s": lib_s, "exit_code": EXIT_OF_VERDICT.get(report.verdict, 2),
            "stdout": _printed(rendered)}


def _cli(argv: list[str], main) -> tuple[int, str, float]:
    buffer = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue(), time.perf_counter() - start


def _patch_layers(tracer: Tracer) -> None:
    """Swap the module attributes the CLI and engine call through.

    ``engine.run`` is left alone: the library leg wraps its own call to it.
    """
    tracer.patch(cli, "load_spec", "schema.load_spec")
    tracer.patch(cli, "render_report", "diagnostics.render_report")
    tracer.patch(schema, "check_spec", "schema.check_spec")
    tracer.patch(engine, "check_spec", "schema.check_spec")
    tracer.patch(datalog, "parse_program", "datalog.parse_program",
                 on_result=lambda tr, program: tr.count("datalog.parse_program.rules",
                                                        len(program.rules)))
    tracer.patch(datalog, "evaluate", "datalog.evaluate",
                 on_result=lambda tr, atoms: tr.count("datalog.evaluate.atoms_out", len(atoms)))
    tracer.patch(engine, "finalize", "engine.finalize")
    tracer.patch(hooks, "parse_script", "hooks.parse_script")
    tracer.patch(engine, "check_instance", "engine.check_instance", leaf=True)
    tracer.patch(engine, "sort_key", "terms.sort_key", leaf=True)
    tracer.patch(engine, "render", "terms.render", leaf=True)
    tracer.patch(hooks, "eval_instance", "hooks.eval_instance", leaf=True)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_trace(spec_path: str, data_path: str, flags: list[str], spans_out: str) -> dict:
    argv = ["validate", *flags, spec_path, data_path]
    plain_code, plain_out, plain_s = _cli(argv, cli.main)

    t = Tracer()
    _patch_layers(t)
    t.patch(engine, "run", "engine.run",
            on_result=lambda tr, report: tr.count("diagnostics.records", len(report.diagnostics)))
    try:
        code, out, _ = _cli(argv, t.wrap("cli.main", cli.main))
    finally:
        t.restore()

    lt = Tracer(prefix="lib.")
    _patch_layers(lt)
    spec_text, data_text = _read(spec_path), _read(data_path)
    gc.collect()
    try:
        facts, report, rendered = lib_path(spec_text, data_text, flags, call=lt.wrap)
    finally:
        lt.restore()

    with open(spans_out, "w", encoding="utf-8") as handle:
        json.dump({"cli": t.export(), "lib": lt.export()}, handle)

    records = t.counters.get("diagnostics.records", 0)
    render_calls = t.calls("terms.render")
    atoms_out = t.counters.get("datalog.evaluate.atoms_out", 0)
    parse_facts_s = lt.total_s("terms.parse_facts")
    metrics = {
        "cli.main.s": t.total_s("cli.main"),
        "cli.self_s": t.self_s("cli.main"),
        "schema.load_spec.s": t.total_s("schema.load_spec"),
        "schema.check_spec.calls": t.calls("schema.check_spec"),
        "schema.check_spec.s": t.total_s("schema.check_spec"),
        "hooks.parse_script.calls": t.calls("hooks.parse_script"),
        "hooks.parse_script.s": t.total_s("hooks.parse_script"),
        "hooks.eval_instance.calls": t.calls("hooks.eval_instance"),
        "hooks.eval_instance.s": t.total_s("hooks.eval_instance"),
        "hooks.eval_instance.failures": t.raised("hooks.eval_instance"),
        "datalog.parse_program.calls": t.calls("datalog.parse_program"),
        "datalog.parse_program.rules": t.counters.get("datalog.parse_program.rules", 0),
        "datalog.parse_program.s": t.total_s("datalog.parse_program"),
        "datalog.evaluate.s": t.total_s("datalog.evaluate"),
        "datalog.evaluate.atoms_out": atoms_out,
        "datalog.evaluate.atoms_per_s": _ratio(atoms_out, t.total_s("datalog.evaluate")),
        "engine.run.s": t.total_s("engine.run"),
        "engine.run.self_s": t.self_s("engine.run"),
        "engine.check_instance.calls": t.calls("engine.check_instance"),
        "engine.check_instance.self_s": t.self_s("engine.check_instance"),
        "engine.finalize.s": t.total_s("engine.finalize"),
        "terms.sort_key.calls": t.calls("terms.sort_key"),
        "terms.sort_key.s": t.total_s("terms.sort_key"),
        "terms.render.calls": render_calls,
        "terms.render.s": t.total_s("terms.render"),
        "terms.render.useful_ratio": _ratio(records, render_calls),
        "lib.terms.parse_facts.s": parse_facts_s,
        "lib.terms.parse_facts.facts_per_s": _ratio(len(facts), parse_facts_s),
        "lib.engine.run.s": lt.total_s("engine.run"),
        "diagnostics.render_report.s": t.total_s("diagnostics.render_report"),
        "diagnostics.records": records,
        "trace.overhead_frac": _ratio(t.total_s("cli.main") - plain_s, plain_s),
    }
    return {
        "metrics": metrics,
        "bases": {"terms.render.useful_ratio": f"{records} of {render_calls}",
                  "datalog.evaluate.atoms_per_s": f"{atoms_out} atoms",
                  "lib.terms.parse_facts.facts_per_s": f"{len(facts)} facts",
                  "trace.overhead_frac": f"untraced cli.main {plain_s:.4f} s"},
        "outputs": {
            "untraced": [plain_code, plain_out],
            "traced": [code, out],
            "lib": [EXIT_OF_VERDICT.get(report.verdict, 2), _printed(rendered)],
        },
    }


def main(argv: list[str]) -> int:
    mode, spec_path, data_path, flags = argv[0], argv[1], argv[2], json.loads(argv[3])
    if mode == "lib":
        result = run_lib(spec_path, data_path, flags)
    else:
        result = run_trace(spec_path, data_path, flags, argv[4])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
