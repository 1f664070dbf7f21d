"""List the executable lines of `src/sal` that a test run never reaches.

    python tools/linetrace.py [pytest arguments]

Runs the Tier-1 command, `python -m pytest -q --continue-on-collection-errors`
plus any arguments given, with a `sitecustomize` module first on PYTHONPATH.
Python imports it at start-up in every process, CLI subprocesses included,
and it installs a `sys.settrace` hook that records the line of every trace
event in a file under `src/sal`, written out when the process exits.  The
executable lines of a module are the line numbers that the `co_lines()` of
its code objects give; line 0, where a module's code starts, counts once
per module and is reached by importing it.  Prints the unreached lines file
by file, then the totals.  Stdlib only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sal"

HOOK = '''
import atexit, json, os, sys, threading
_src, _out, _hits = {src!r}, {out!r}, {{}}

def _trace(frame, event, arg):
    path = frame.f_code.co_filename
    if not path.startswith(_src):
        return None
    lines = _hits.setdefault(path, set())
    lines.add(frame.f_lineno)
    def local(frame, event, arg):
        lines.add(frame.f_lineno)
        return local
    return local

def _dump():
    with open(os.path.join(_out, f"{{os.getpid()}}.json"), "w") as fh:
        json.dump({{k: sorted(v) for k, v in _hits.items()}}, fh)

sys.settrace(_trace)
threading.settrace(_trace)
atexit.register(_dump)
'''


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every instruction in the module's code objects."""
    out, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        out.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return out


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as hook, tempfile.TemporaryDirectory() as out:
        Path(hook, "sitecustomize.py").write_text(HOOK.format(src=str(SRC) + os.sep, out=out))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [hook, str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", *argv]
        code = subprocess.run(cmd, cwd=ROOT, env=env).returncode
        hits: dict[str, set[int]] = {}
        for dump in Path(out).glob("*.json"):
            for path, lines in json.loads(dump.read_text()).items():
                hits.setdefault(path, set()).update(lines)
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        unreached = sorted(lines - hits.get(str(path), set()))
        total, missed = total + len(lines), missed + len(unreached)
        if unreached:
            print(f"{path.relative_to(ROOT)}: {', '.join(map(str, unreached))}")
    print(f"{total - missed} of {total} executable lines reached, {missed} unreached "
          f"(pytest exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
