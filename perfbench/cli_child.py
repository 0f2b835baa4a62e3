"""``python -m deltaforms.cli`` with the host's speed timed around it.

    python3 perfbench/cli_child.py CALIBRATION_FILE -- ARGS...

Runs the deltaforms command line on ARGS in this process, exactly as
``python -m deltaforms.cli ARGS`` would, and times the calibration of
calibration.py just before and just after it.  The two times go to
CALIBRATION_FILE as ``{"calibration": [before, after]}``.  A CLI op's time is
dominated by its own process start, which the parent's calibration does not
follow, so the calibration has to run in the child.
"""

import json
import runpy
import sys

from calibration import calibration


def main():
    path, argv = sys.argv[1], sys.argv[3:]
    before = calibration()
    sys.argv = [sys.argv[0]] + argv
    try:
        runpy.run_module("deltaforms.cli", run_name="__main__", alter_sys=True)
    finally:
        sys.stdout.flush()
        after = calibration()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"calibration": [before, after]}, fh)


if __name__ == "__main__":
    main()
