"""Generated malformed inputs through the CLI, in process.

Valid texts of every format are mutated -- a line cut short, a character
swapped for one of "-x,.\\t", a byte that is not UTF-8 put in, a line
dropped or duplicated -- and written in binary to the file the command
reads.  Whatever the text, the command must exit 0 or 1 and raise
nothing; exit 1 must come with an `error: path:line:column:` diagnostic.
`verify diamondfree` may also exit 2, its verdict on a well-formed graph
that a mutation left with an edge in no or two triangles.  Header values
stay small, so no case allocates much.
"""

import contextlib
import io
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornerforge.cli import main

# (command before the path, valid text, exit codes besides 0 and 1)
CASES = {
    "grid": (["count", "density", "--set"], "dim 2 side 4\n1 1\n2 3\n4 4\n3 1\n", ()),
    "residues": (["verify", "relationfree", "--relation", "1,-2,1", "--set"], "dim 1 side 9\n1\n2\n4\n", (2,)),
    "group zN": (["count", "density", "--set"], "group zN 5\n0 1\n2 3\n4 4\n", ()),
    "group fp": (["count", "density", "--set"], "group fp 3 2\n0,0 1,2\n2,1 0,0\n1,1 2,2\n", ()),
    "hypergraph": (["count", "homs", "--motif", "triforce", "--hypergraph"], "3 6 4\n0 1 2\n1 2 3\n0 3 4\n2 4 5\n", ()),
    "kernel": (["count", "triforce", "--kernel"], "2\n1/2 1/4\n0 1\n3/4 1/8\n1 1/2\n", ()),
    "tripartite": (
        ["verify", "diamondfree", "--graph"],
        "tripartite 3\nXY 0 1\nYZ 1 2\nXZ 0 2\nXY 1 2\nYZ 2 0\nXZ 1 0\n",
        (2,),
    ),
}


def run(name, data):
    """(path, (exit code, stdout, stderr)) of the command of CASES[name] on a file holding `data`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*CASES[name][0], path])
    return path, (code, out.getvalue(), err.getvalue())


@st.composite
def mutated(draw):
    """(name, mutated bytes) for one of CASES after one to three mutations."""
    name = draw(st.sampled_from(sorted(CASES)))
    lines = CASES[name][1].encode().splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        kind = draw(st.sampled_from(["cut", "swap", "byte", "drop", "duplicate"]))
        if kind == "cut":
            lines[i] = line[: draw(st.integers(0, len(line)))]
        elif kind == "swap":
            j = draw(st.integers(0, max(len(line) - 1, 0)))
            lines[i] = line[:j] + draw(st.sampled_from([b"-", b"x", b",", b".", b"\t"])) + line[j + 1 :]
        elif kind == "byte":
            j = draw(st.integers(0, len(line)))
            lines[i] = line[:j] + b"\xff" + line[j:]
        elif kind == "drop":
            del lines[i]
        else:
            lines.insert(i, line)
    return name, b"".join(lines)


@settings(max_examples=400, deadline=None)
@given(mutated())
def test_mutated_input_exits_0_or_1_with_a_positioned_diagnostic(case):
    name, data = case
    path, (code, _, err) = run(name, data)
    assert code in (0, 1, *CASES[name][2]), (code, err)
    if code == 1:
        assert re.match(rf"error: {re.escape(path)}:\d+:\d+: ", err), err


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_byte_that_is_not_utf8_is_refused_at_its_line_but_not_in_a_comment(name):
    data = CASES[name][1].encode()
    lines = data.splitlines(keepends=True)
    for i, line in enumerate(lines):
        j = len(line) // 2
        bad = b"".join(lines[:i] + [line[:j] + b"\xff" + line[j:]] + lines[i + 1 :])
        path, (code, _, err) = run(name, bad)
        assert code == 1 and re.match(rf"error: {re.escape(path)}:{i + 1}:\d+: ", err), (i, err)
    assert run(name, b"# \xff\n" + data)[1] == run(name, data)[1]
