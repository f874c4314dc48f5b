"""Rewrite the reference results under tests/reference/ from the current source.

Usage, from the repository root:

    PYTHONPATH=src python tests/reference/regenerate.py [case ...]

With no case named, every case of tests/test_reference.py is run.  Each
case runs through cli.main in a temporary directory, and only its result
files are copied here; manifests carry wall time and paths and are not
references.
"""

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from test_reference import CASES, run_case, write_inputs  # noqa: E402


def regenerate(cases) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        for case in cases:
            out = os.path.join(tmp, case)
            if run_case(case, tmp, out) != 0:
                raise SystemExit(f"{case}: the run did not exit 0")
            os.makedirs(os.path.join(HERE, case), exist_ok=True)
            for name in CASES[case][1]:
                shutil.copyfile(os.path.join(out, name), os.path.join(HERE, case, name))
            print(f"{case}: {', '.join(CASES[case][1])}")


if __name__ == "__main__":
    regenerate(sys.argv[1:] or sorted(CASES))
