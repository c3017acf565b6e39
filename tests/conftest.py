import os
import subprocess
import sys

import pytest

import srknots

CLI_ENTRY = ("-c", "from srknots.cli import run; run()")


@pytest.fixture
def fresh_process():
    """Run `entry` and argv in a fresh interpreter that imports this checkout's srknots.

    The child gets -O as often as this interpreter has it unless `optimize`
    says otherwise; its output is captured as text, and the other keywords
    go to `subprocess.run`.
    """
    src = os.path.dirname(os.path.dirname(srknots.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*argv, entry=CLI_ENTRY, optimize=sys.flags.optimize, **kwargs):
        return subprocess.run(
            [sys.executable, *["-O"] * optimize, *entry, *argv],
            env=env, capture_output=True, text=True, **kwargs,
        )

    return run
