"""The experiment scripts, run as a user runs them: exit code and exact
output, and refusals of oversized or malformed arguments as ``loctower``
gives them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# Runs a script in a fresh interpreter and reports, as the last line of
# stderr, its seconds from the start of the script to its exit.
PROBE = """
import atexit, runpy, sys, time
start = time.perf_counter()
atexit.register(lambda: print(time.perf_counter() - start, file=sys.stderr))
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def probe_script(name, *args):
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run(
        [sys.executable, "-c", PROBE, f"scripts/{name}", *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    *lines, seconds = done.stderr.splitlines()
    return done.returncode, done.stdout, lines, float(seconds)


@pytest.mark.parametrize(
    "name,args",
    [
        ("witness_sweep.py", ("--level", "40")),
        ("witness_sweep.py", ("--level", "14")),
        ("root_survey.py", ("--max-level", "40")),
    ],
)
def test_oversized_levels_are_refused_at_once(name, args):
    """Both scripts hold the tower to the command line's default budget of
    10**6 letters, and refuse before any level is built."""
    level = args[1]
    code, out, lines, seconds = probe_script(name, *args)
    assert (code, out) == (1, "")
    assert lines == [
        f"error: promotion from level 0 to {level} would give 4^{level}*1 letters (limit 1000000)"
    ]
    assert seconds < 1.0


@pytest.mark.parametrize(
    "name,args",
    [
        ("witness_sweep.py", ("--level", "٢")),
        ("witness_sweep.py", ("--primes", "2", "+2")),
        ("witness_sweep.py", ("--max-depth", "3_0")),
        ("root_survey.py", ("--max-level", "٢")),
        ("root_survey.py", ("--primes", "+2")),
    ],
)
def test_integer_arguments_read_as_the_command_line_reads_them(name, args):
    code, out, lines, _ = probe_script(name, *args)
    assert (code, out) == (2, "")
    assert f"error: argument {args[0]}: column " in lines[-1]


@pytest.mark.parametrize(
    "name,message",
    [
        ("witness_sweep.py", "error: 4 is not prime"),
        ("root_survey.py", "error: p must be a prime, got 4"),
    ],
)
def test_domain_errors_exit_1_without_a_traceback(name, message):
    code, out, lines, _ = probe_script(name, "--primes", "4")
    assert (code, out, lines) == (1, "", [message])


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_witness_sweep_refuses_a_depth_below_1(depth):
    """An empty sweep is refused as ``loctower witness --depth 0`` is,
    before any witness is built."""
    code, out, lines, seconds = probe_script("witness_sweep.py", "--max-depth", depth)
    assert (code, out, lines) == (1, "", ["error: depth must be >= 1"])
    assert seconds < 1.0


def test_witness_sweep_refuses_a_deep_sweep_before_building():
    """Every (prime, depth) pair is checked before the first witness is
    built, so a sweep whose last depths pass the relation bound is refused
    at once, not after 2,584 level-7 witnesses."""
    code, out, lines, seconds = probe_script(
        "witness_sweep.py", "--primes", "3", "--max-depth", "3000", "--level", "7"
    )
    assert (code, out) == (1, "")
    assert lines == [
        "error: relation exponent 3^2585 has more than 4096 bits (adjunction.MAX_RELATION_BITS)"
    ]
    assert seconds < 2.0
