"""The experiment scripts, run as a user runs them: exit code and exact output."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DISTINGUISHED = "x1*x2*x1^-1*x2^-1*x3*x4*x3^-1*x4^-1*x2*x1*x2^-1*x1^-1*x4*x3*x4^-1*x3^-1"


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run(
        [sys.executable, f"scripts/{name}", *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


SWEEP_ARGS = ("--level", "2", "--primes", "2", "3", "--max-depth", "2")


def test_witness_sweep_text():
    assert run_script("witness_sweep.py", *SWEEP_ARGS) == (
        "level 2 (base rank 4)\n"
        "prime depth   quotient  t_image rootless\n"
        "    2     1        Z/2      1/2     true\n"
        "    2     2        Z/4      1/4     true\n"
        "    3     1        Z/3      1/3     true\n"
        "    3     2        Z/9      1/9     true\n"
    )


def test_witness_sweep_json():
    rows = [
        {
            "level": 2,
            "prime": p,
            "depth": d,
            "base_rank": 4,
            "distinguished": DISTINGUISHED,
            "rootless": True,
            "relator": f"t^{p**d}*x^-1",
            "relator_image": "0",
            "t_image": f"1/{p**d}",
            "t_order": p**d,
            "quotient": f"Z/{p**d}",
        }
        for p in (2, 3)
        for d in (1, 2)
    ]
    out = run_script("witness_sweep.py", *SWEEP_ARGS, "--json")
    assert out == json.dumps(rows, indent=2) + "\n"


SURVEY_ARGS = ("--primes", "2", "3", "--max-level", "3")


def test_root_survey_text():
    assert run_script("root_survey.py", *SURVEY_ARGS) == (
        "element x1  p=2  NO_ROOT_PROVEN  (theorem mode confirmed by checking levels 0,1,2,3)\n"
        "element x1  p=3  NO_ROOT_PROVEN  (theorem mode confirmed by checking levels 0,1,2,3)\n"
    )


def test_root_survey_json():
    rows = [
        {
            "element": "x1",
            "prime": p,
            "status": "NO_ROOT_PROVEN",
            "theorem_levels": [0],
            "cross_check_levels": [0, 1, 2, 3],
        }
        for p in (2, 3)
    ]
    out = run_script("root_survey.py", *SURVEY_ARGS, "--json")
    assert out == json.dumps(rows, indent=2) + "\n"
