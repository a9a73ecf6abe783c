"""The CLI's exit-code contract, on options drawn from small pools.

Every subcommand runs in process with ``--out`` in a fresh directory; the
pools mix valid values with negatives, zeros, ones, non-prime and
non-coprime bases, malformed specs and transforms and a missing table.
Whatever they draw, no exception escapes and the exit code is 0, 1 or 2:

* 2 means one ``usage error:`` line on stderr, nothing on stdout and no file;
* 1 means one JSON record on stderr;
* 0 and 1 leave a header and at least one data row.

The sizes are small enough that every draw finishes in well under a
second, and 600 of them take a few seconds.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lowdisc.cli import main

# Each option has a pool of values in its domain and one of values outside
# it; an option draws from the second about one time in four.  None leaves
# the option out.
SPECS = (["vdc:2", "vdc:3", "halton:2,3", "halton:3", "pascal:3,2", "pascal:2,1,4"],
         ["vdc:1", "halton:2,4", "pascal:4,2", "nope:2"])
TRANSFORMS = (["sod:2", "sod:3", "pow:1/2", "pow:2/3", "TABLE"],
              ["sod:1", "pow:3/2", "pow:2/4", "MISSING", "bogus", '{"kind":"sod","q":null}',
               '{"kind":"sod","q":[2]}', '{"kind":"sod","q":1e400}', '{"kind":"sod","q":2.9}',
               '{"kind":"pow","u":true,"v":3}', '{"kind":"table","path":null}'])
OPTIONAL_TRANSFORMS = ([None] + TRANSFORMS[0], TRANSFORMS[1])
MODES = ([None, "extreme", "star"], [None])  # argparse itself rejects other modes
LEVELS = ([0, 1, 2, 3], [-1])
BASES = ([2, 3, 4], [1, 0, -1])
COUNTS = ([1, 2, 5], [0, -1])
T_VALUES = ([None, 0, 1], [-1])

# subcommand -> (option, pools) pairs
COMMANDS = {
    "gen": [("--spec", SPECS), ("--count", COUNTS), ("--start", ([None, 0, 7], [-1]))],
    "transform": [("--transform", TRANSFORMS), ("--count", COUNTS),
                  ("--start", ([None, 0, 7], [-2]))],
    "dist": [("--q", BASES), ("--j", LEVELS)],
    "disc": [("--spec", SPECS), ("--transform", OPTIONAL_TRANSFORMS),
             ("--N", ([1, 2, 5, 17], [0, -1])), ("--mode", MODES)],
    "udisc": [("--spec", SPECS), ("--transform", OPTIONAL_TRANSFORMS), ("--N", COUNTS),
              ("--kmax", ([0, 1, 4], [-1])), ("--mode", MODES)],
    "expsum": [("--b", BASES), ("--q", BASES), ("--kmin", ([None, 0, 2], [-1])),
               ("--kmax", LEVELS), ("--N", ([1, 10], [0, -1]))],
    "hkbound": [("--b", BASES), ("--q", BASES), ("--N", ([1, 2, 10], [0, -1])),
                ("--g", ([None, 1, 2], [0, -1]))],
    "genbound": [("--spec", SPECS), ("--q", BASES), ("--dmax", LEVELS)],
    "sodcheck": [("--spec", SPECS), ("--q", BASES), ("--dmax", ([2, 4], [-1, 0, 1])),
                 ("--cal", ([None, 2, 3], [-1, 0, 1])), ("--mode", MODES)],
    "monocheck": [("--spec", SPECS), ("--u", ([1, 2], [0, 3, -1])),
                  ("--v", ([3], [0, 1, 2, -1, 1000])),
                  ("--dmax", ([1, 2, 3], [0, -1])), ("--cal-dmax", ([None, 1, 2], [0, -1])),
                  ("--mode", MODES)],
    "ubound": [("--spec", SPECS), ("--b", BASES), ("--t", T_VALUES),
               ("--dmax", ([0, 1, 2], [-1])), ("--kmax", ([0, 1, 4], [-1])),
               ("--blocks", ([None, 1, 2], [0]))],
    "netcheck": [("--spec", SPECS), ("--base", BASES), ("--t", T_VALUES), ("--mmax", LEVELS),
                 ("--kmax", ([0, 1, 2], [-1]))],
}
REPORT = [("curve", (["sod", "alpha", "bound"], ["nope"])), ("spec", SPECS),
          ("q", ([None, 2, 3], [0, 1])), ("u", ([None, 1, 2], [0])), ("v", ([None, 3], [1])),
          ("dmax", ([None, 2, 3], [-1, 0, 1])), ("mode", ([None, "extreme", "star"], ["bogus"]))]


def _draw(data, options) -> list[tuple[str, str]]:
    drawn = []
    for name, (good, bad) in options:
        pool = bad if data.draw(st.integers(0, 3), label=f"{name} outside") == 0 else good
        drawn.append((name, data.draw(st.sampled_from(pool), label=name)))
    return [(name, str(value)) for name, value in drawn if value is not None]


def _table_path(tmp: Path, value: str) -> str:
    """TABLE names a readable table of 0, 1, 2; MISSING one that does not exist."""
    if value not in ("TABLE", "MISSING"):
        return value
    path = tmp / ("table.txt" if value == "TABLE" else "missing.txt")
    if value == "TABLE":
        path.write_text("0\n1\n2\n")
    return json.dumps({"kind": "table", "path": str(path)})


def _run(args) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(args)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_every_command_keeps_the_exit_code_contract(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS) + ["report"]), label="command")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if command == "report":
            config = "".join(f"{k}={v}\n" for k, v in _draw(data, REPORT))
            (tmp / "cfg").write_text(config + f"out={tmp / 'rep'}\n")
            args = ["report", "--config", str(tmp / "cfg")]
        else:
            pairs = _draw(data, COMMANDS[command])
            args = [command] + [x for k, v in pairs for x in (k, _table_path(tmp, v))]
            args += ["--out", str(tmp / "out.csv")]
        inputs = set(tmp.iterdir())
        rc, out, err = _run(args)
        written = set(tmp.iterdir()) - inputs
        assert rc in (0, 1, 2)
        assert out == ""
        if rc == 2:
            assert err.startswith("usage error: ") and err.count("\n") == 1, err
            assert not written
            return
        if rc == 1:
            assert err.count("\n") == 1 and isinstance(json.loads(err), dict), err
        else:
            assert err == ""
        if command == "report":
            data_files = [p for p in (tmp / "rep").iterdir() if p.suffix == ".dat"]
            assert data_files and all(p.read_text().count("\n") >= 1 for p in data_files)
        else:
            assert written == {tmp / "out.csv"}
            assert (tmp / "out.csv").read_text().count("\n") >= 2
