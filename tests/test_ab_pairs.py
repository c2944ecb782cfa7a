"""scripts/ab_pairs.py leaves nothing behind when it is stopped."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# ab_pairs.main with `export` blocked once the parent's directory exists,
# and `git` answered without a checkout
BLOCKED = """
import sys, time
from pathlib import Path
sys.path.insert(0, {scripts!r})
import ab_pairs

def export(commit, root, dest):
    Path(dest, "started").touch()
    time.sleep(60)

ab_pairs.git = lambda *args, cwd: str(cwd)
ab_pairs.export = export
ab_pairs.main(["--parent", "HEAD", "--workload", "corpus-sweep", "--seed", "1",
               "--out", "ab.json"])
"""


def test_sigterm_removes_the_temporary_directory(tmp_path):
    proc = subprocess.Popen([sys.executable, "-c", BLOCKED.format(scripts=str(SCRIPTS))],
                            cwd=tmp_path, env=dict(os.environ, TMPDIR=str(tmp_path)))
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob("ab-*/parent/started")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        proc.kill()
    assert not list(tmp_path.glob("ab-*"))
