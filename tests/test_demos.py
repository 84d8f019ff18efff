"""Every demo prints the stdout recorded under `tests/demo_stdout/`, and
the README's library quick start runs as written.

The demos are the project's worked examples, and their printed numbers are
what a reader checks against the paper; a change that alters any of them
must re-record the file on purpose. Each demo runs in its own interpreter,
as a reader would run it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_recording():
    recorded = sorted(p.stem for p in (ROOT / "tests" / "demo_stdout").glob("*.txt"))
    assert recorded == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_stdout_is_byte_identical(demo):
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    run = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=300
    )
    assert run.returncode == 0, run.stderr.decode()
    expected = (ROOT / "tests" / "demo_stdout" / f"{demo.stem}.txt").read_bytes()
    assert run.stdout == expected


def readme_quick_start() -> str:
    """The `python` block under the README's "Library quick start" heading."""
    section = (ROOT / "README.md").read_text().split("\n## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    # The documented API stays the package's: the block searches, trains,
    # predicts and saves as written, in a fresh directory.
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(readme_quick_start(), "README.md", "exec"), names)
    assert len(names["predicted"]) == names["data"].n_samples
    assert (tmp_path / "model.hdcm").stat().st_size > 0
