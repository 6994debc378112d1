"""The exit-code contract over generated argument vectors.

Every command, fed valid, malformed and over-bound values, must end with
0 (ok), 1 (verify or data), 2 (input; argparse's own refusals included)
or 3 (bound), raise nothing else, and answer quickly: bounds are checked
before any work.  Values are kept cheap where they are accepted, so the
time limit catches work that runs before a bound check, not honest work.
A reader that closes stdout early ends a successful command with 0 too.
"""

import io
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nilorbits.cli import main
from nilorbits.core import partitions_of

FORMATS = st.sampled_from(["json", "text", "yaml"])
INTS = st.sampled_from(["-1", "0", "x", "1.5", ""])

SMALL_PARTITIONS = st.sampled_from(
    [",".join(map(str, p.parts)) for total in range(1, 8) for p in partitions_of(total)]
)
# Totals of 10 and more, all past every --bound drawn below.
LARGE_PARTITIONS = st.sampled_from(
    ["10", "4,4,2", "5,5", "3,3,3,1", "1,1,1,1,1,1,1,1,1,1", "20,20", "99999999999999999999"]
)
BAD_PARTITIONS = st.sampled_from(["", "1,3", "a", "0", "-1", "2,,1", "1.5", ",", "3;2"])
PARTITIONS = st.one_of(SMALL_PARTITIONS, LARGE_PARTITIONS, BAD_PARTITIONS)


def given_flag(flag, values):
    """``[flag, value]`` always: a missing required flag has its own vectors below."""
    return values.map(lambda v: [flag, v])


def option(flag, values):
    """``[flag, value]`` or nothing."""
    return st.one_of(st.just([]), given_flag(flag, values))


def switch(name):
    return st.sampled_from([[], [name]])


def command(name, *parts):
    return st.tuples(*parts).map(lambda chunks: [name] + [a for chunk in chunks for a in chunk])


J_SETS = st.sampled_from(["", "-", "1", "2,4", "1,3,5", "3,1", "1,1", "0", "a", "100000000"])
ORBIT_PARTITIONS = st.one_of(PARTITIONS, st.just("100000000"))
ORBIT = command(
    "orbit",
    given_flag("--type", st.sampled_from(["A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2", "X"])),
    option("--rank", st.one_of(st.integers(-1, 8).map(str), st.just("99999999"), INTS)),
    st.one_of(  # exactly one selector is valid, but try both and neither too
        J_SETS.map(lambda j: ["--j", j]),
        ORBIT_PARTITIONS.map(lambda p: ["--partition", p]),
        st.tuples(J_SETS, ORBIT_PARTITIONS).map(lambda jp: ["--j", jp[0], "--partition", jp[1]]),
        st.just([]),
    ),
    option("--format", FORMATS),
)
PAVING = command(
    "paving",
    given_flag("--partition", PARTITIONS),
    option("--bound", st.one_of(st.sampled_from(["-1", "0", "1", "3", "7", "9"]), INTS)),
    switch("--cells"),
    option("--format", FORMATS),
)
DECOMPOSE = command(
    "decompose",
    given_flag(
        "--rank",
        st.one_of(st.integers(-2, 12).map(str), st.sampled_from(["21", "40", "99999999"]), INTS),
    ),
    option("--format", FORMATS),
)
TABLES = command(
    "tables",
    given_flag("--type", st.sampled_from(["E6", "E7", "E8", "A", "Z"])),
    switch("--validate"),
    option("--format", FORMATS),
)
# Always with --max-rank: the default, 10, is honest work of a second or two.
VERIFY = command(
    "verify",
    given_flag(
        "--max-rank", st.one_of(st.sampled_from(["-2", "-1", "0", "1", "2", "3", "15", "30"]), INTS)
    ),
)
ARGV = st.one_of(
    ORBIT,
    PAVING,
    DECOMPOSE,
    TABLES,
    VERIFY,
    st.sampled_from(
        [
            [],
            ["nope"],
            ["paving", "--nope"],
            ["verify", "x"],
            ["orbit", "-h"],
            ["-h"],
            ["verify", "--max-rank=3"],
            ["paving", "orbit"],
        ]
    ),
    st.sampled_from(["orbit", "paving", "decompose", "tables"]).map(lambda name: [name]),
)


def cli_env():
    """The environment for ``python -m nilorbits.cli`` with this checkout's sources first."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = [src, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


@given(ARGV)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_argument_vector_keeps_the_exit_code_contract(argv):
    start = time.perf_counter()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:  # argparse refuses malformed argument vectors
        code = exc.code
    assert time.perf_counter() - start < 2.0, argv
    assert code in (0, 1, 2, 3), argv


def test_closed_stdout_pipe_exits_zero_without_traceback():
    # About 0.6 MB of JSON and 0.2 MB of text, far past a pipe's buffer, so
    # the writer meets the closed pipe while it is still printing.
    env = cli_env()
    argv = [sys.executable, "-m", "nilorbits.cli", "paving", "--partition", "3,3,2,1", "--cells"]
    for fmt, first_line in (("json", b"{\n"), ("text", b"partition: [3, 3, 2, 1]\n")):
        proc = subprocess.Popen(
            argv + ["--format", fmt], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        assert proc.stdout.readline() == first_line
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert b"Traceback" not in stderr


def test_orbit_rank_above_bound_exits_three_without_traceback():
    # Past rank 10^8 an order that orbit prints can pass CPython's 4,300-digit
    # int-to-str limit: |Z(J)| = n + 1 in the first request, |pi1| = 2^15000
    # for the 15,000 distinct even parts of the second.
    env = cli_env()
    evens = ",".join(map(str, range(30000, 0, -2)))
    for request in (
        ["--type", "A", "--rank", "9" * 4300, "--j", ""],
        ["--type", "C", "--rank", "112507500", "--partition", evens],
    ):
        for fmt in ("json", "text"):
            argv = [sys.executable, "-m", "nilorbits.cli", "orbit", *request, "--format", fmt]
            proc = subprocess.run(argv, capture_output=True, env=env, timeout=60)
            assert proc.returncode == 3
            assert proc.stdout == b""
            assert proc.stderr.startswith(b"error: --rank ")
            assert proc.stderr.count(b"\n") == 1
            assert b"Traceback" not in proc.stderr


def test_error_messages_cut_a_huge_argument():
    # A 100 KB argument is quoted up to a fixed length; a short one whole.
    env = cli_env()
    rising = "1," * 50_000 + "2"
    for request, start in (
        (["paving", "--partition", rising], b"error: partition must be comma-separated descending"),
        (["orbit", "--type", "A", "--rank", "4", "--partition", rising + ",x"],
         b"error: partition entries must be integers"),
        (["orbit", "--type", "A", "--rank", "4", "--j", "2," * 50_000 + "1"],
         b"error: J must be comma-separated strictly ascending"),
        (["orbit", "--type", "A", "--rank", "4", "--j", rising + ",x"], b"error: J entries must be integers"),
        (["orbit", "--type", "X" * 100_000, "--rank", "3", "--j", "1"], b"error: unknown Lie family 'X"),
        (["tables", "--type", "X" * 100_000], b"error: unknown Lie family 'X"),
    ):
        argv = [sys.executable, "-m", "nilorbits.cli", *request]
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.startswith(start)
        assert proc.stderr.count(b"\n") == 1
        assert len(proc.stderr) < 200
        assert b"... (" in proc.stderr and b"characters)" in proc.stderr
        assert b"Traceback" not in proc.stderr
    for request, message in (
        (["--partition", "1,3"], "partition must be comma-separated descending, got '1,3'"),
        (["--partition", "3,a"], "partition entries must be integers: '3,a'"),
        (["--j", "3,1"], "J must be comma-separated strictly ascending, got '3,1'"),
        (["--j", "1,a"], "J entries must be integers: '1,a'"),
    ):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["orbit", "--type", "A", "--rank", "4", *request])
        assert (code, err.getvalue()) == (2, "error: %s\n" % message)


NINES = "9" * 4000
WIDE = "9" * 4300  # CPython's longest int-to-str conversion; two such parts sum past it
ORBIT_A4 = ["orbit", "--type", "A", "--rank", "4"]


@pytest.mark.parametrize(
    "argv,code",
    [
        (["paving", "--partition", "-" + NINES], 2),
        (ORBIT_A4 + ["--j", "0" + NINES], 2),
        (ORBIT_A4 + ["--j", "-" + NINES], 2),
        (["orbit", "--type", "A", "--rank", "-" + NINES, "--j", "1"], 2),
        (["orbit", "--type", "E6", "--rank", NINES, "--j", "1"], 2),
        (["orbit", "--type", "A", "--rank", NINES, "--j", "1"], 3),
        (["paving", "--partition", "2,1", "--bound", "-" + NINES], 2),
        (["verify", "--max-rank", "-" + NINES], 2),
        (["verify", "--max-rank", NINES], 3),
        (["decompose", "--rank", "-" + NINES], 2),
        (["decompose", "--rank", NINES], 3),
        (ORBIT_A4 + ["--partition", NINES], 2),
        (ORBIT_A4 + ["--partition", ",".join(["1"] * 50_000)], 2),
        (["orbit", "--type", "C", "--rank", "4", "--partition", WIDE + "," + WIDE], 2),
        (["paving", "--partition", WIDE + "," + WIDE], 3),
    ],
)
def test_error_messages_cut_a_huge_number(argv, code):
    # An int or partition of thousands of digits is shown up to a fixed
    # length; a sum past the int-to-str limit is named by its bit length.
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert main(argv) == code
    message = err.getvalue()
    assert message.startswith("error: ") and message.count("\n") == 1
    assert len(message.encode()) < 300
    assert "... (" in message or "-bit integer>" in message


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["paving", "--partition", "2,-1"], 2, "partition entries must be positive, got -1"),
        (ORBIT_A4 + ["--j", "7"], 2, "subset element 7 out of range [1, 4]"),
        (ORBIT_A4 + ["--j", "-3"], 2, "subset elements must be >= 1, got -3"),
        (["orbit", "--type", "A", "--rank", "-3", "--j", "1"], 2,
         "family A requires rank >= 1, got -3"),
        (["orbit", "--type", "E6", "--rank", "5", "--j", "1"], 2, "E6 has fixed rank 6, got 5"),
        (["orbit", "--type", "A", "--rank", "100000001", "--j", "1"], 3,
         "--rank 100000001 exceeds the orbit bound 100000000"),
        (["paving", "--partition", "2,1", "--bound", "0"], 2, "--bound must be >= 1, got 0"),
        (["paving", "--partition", "9,4", "--bound", "12"], 3,
         "partition size 13 exceeds the enumeration bound 12"),
        (["verify", "--max-rank", "0"], 2, "--max-rank must be >= 1, got 0"),
        (["verify", "--max-rank", "15"], 3, "--max-rank 15 exceeds the verify bound 14"),
        (["decompose", "--rank", "0"], 2, "rank must be >= 1, got 0"),
        (["decompose", "--rank", "21"], 3, "rank 21 exceeds the report bound 20"),
        (ORBIT_A4 + ["--partition", "3,1"], 2, "partition [3, 1] sums to 4, expected 5 for A4"),
        (["tables", "--type", "Q"], 2, "unknown Lie family 'Q'"),
        # One cell and 11 row states, refused by the default --bound alone.
        (["paving", "--partition", "10"], 3, "partition size 10 exceeds the enumeration bound 9"),
    ],
)
def test_error_messages_show_a_short_number_whole(argv, code, message):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert main(argv) == code
    assert err.getvalue() == "error: %s\n" % message


@pytest.mark.parametrize("text", ["2,,1", ",3", "3,"])
@pytest.mark.parametrize("command", [["paving"], ["orbit", "--type", "A", "--rank", "2"]])
def test_an_empty_partition_entry_is_refused(command, text):
    # An empty entry is malformed, as in --j, rather than dropped.
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main([*command, "--partition", text]) == 2
    assert out.getvalue() == ""
    assert err.getvalue() == "error: partition entries must be integers: '%s'\n" % text
