"""A stand-in grounder for bridge mode, built on aspcheck's own rule engine.

It reads a program on stdin, computes its model with
aspcheck.datalog.parse_program and evaluate, and prints each atom as a
fact on its own line, in term order.  A program the engine cannot read or
evaluate ends with the engine's message on stderr and exit status 1.

    aspcheck validate --mode bridge \\
        --grounder-cmd "python tests/stub_grounder.py" spec.yaml data.lp
"""

import sys

from aspcheck.datalog import EvaluationError, evaluate, parse_program
from aspcheck.terms import ParseError, render, sort_key


def main() -> int:
    try:
        model = evaluate(parse_program(sys.stdin.read()), [])
    except (ParseError, ValueError, EvaluationError) as exc:
        print(exc, file=sys.stderr)
        return 1
    for term in sorted((fact.term() for fact in model), key=sort_key):
        print(render(term) + ".")
    return 0


if __name__ == "__main__":
    sys.exit(main())
