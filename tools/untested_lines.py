"""Report the statements of src/deltaforms that a pytest run never executes.

    PYTHONPATH=src python tools/untested_lines.py [--report FILE] [pytest args]

Runs pytest in this process while a sys.monitoring tool listens for LINE
events; each callback returns DISABLE, so every line costs one event and the
run stays close to plain pytest speed.  Afterwards it lists, per module of
the package, the ast statements (docstrings, global and nonlocal excluded)
of which no line ran.  The report is appended to FILE, or printed, as a fenced
Markdown block; the exit code is pytest's.

Standard library only; needs Python 3.12 or later for sys.monitoring.
"""

import ast
import sys
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "deltaforms"


def statements(tree):
    """(line, the lines of which one must run) for each reportable statement.

    A compound statement runs when its header or its first body line does:
    some headers, such as try:, compile to no instruction of their own.
    """
    skip = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            skip.add(body[0])
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or node in skip
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno if body else node.end_lineno
        yield node.lineno, range(first, last + 1)


def ranges(lines):
    """'3-5, 9' for [3, 4, 5, 9]."""
    runs = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in runs)


def report(hits):
    out = ["```text"]
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        stmts = dict(statements(ast.parse(path.read_text(encoding="utf-8"))))
        missed = sorted(line for line, span in stmts.items()
                        if ran.isdisjoint(span))
        rel = path.relative_to(PACKAGE.parent.parent)
        out.append("%s: %d of %d statements never ran%s" % (
            rel, len(missed), len(stmts),
            ": " + ranges(missed) if missed else ""))
    out.append("```")
    return "\n".join(out) + "\n"


def main(argv):
    target = None
    if argv[:1] == ["--report"]:
        target, argv = argv[1], argv[2:]
    mon = sys.monitoring
    tool = mon.COVERAGE_ID
    hits = defaultdict(set)

    def on_line(code, line):
        hits[code.co_filename].add(line)
        return mon.DISABLE

    mon.use_tool_id(tool, "untested_lines")
    mon.register_callback(tool, mon.events.LINE, on_line)
    mon.set_events(tool, mon.events.LINE)
    try:
        import pytest
        code = pytest.main(argv)
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)
    resolved = defaultdict(set)
    for name, lines in hits.items():
        resolved[str(Path(name).resolve())] |= lines
    text = ("### Statements of src/deltaforms that the tests never run\n\n"
            + report(resolved))
    if target is None:
        sys.stdout.write(text)
    else:
        with open(target, "a", encoding="utf-8") as fh:
            fh.write(text)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
