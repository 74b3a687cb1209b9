"""The CLI's stdout bytes, pinned by sha256 on eight seeded codes.

The digests in golden_digests.json were recorded once and are compared
unchanged, so any change to a table, a check or a printer that moves a
single output byte fails here.  The codes cover q in {2, 3, 4, 5, 7, 8, 9}
with both n < m and n > m.  `PYTHONPATH=src python tests/test_golden.py`
prints the digests of the current tree in the file's format.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

from qrank.cli import main

DIGESTS_PATH = pathlib.Path(__file__).with_name("golden_digests.json")

# (field arguments of `qrank random-code`, n, m, dim, seed)
CODES = [
    (["--q", "2"], 3, 2, 3, 1),
    (["--q", "2"], 2, 4, 3, 2),
    (["--q", "3"], 2, 3, 2, 3),
    (["--q", "4"], 3, 2, 2, 4),
    (["--q", "5"], 2, 3, 3, 5),
    (["--q", "7"], 3, 2, 2, 6),
    (["--q", "8"], 2, 3, 2, 7),
    (["--q", "9"], 3, 1, 1, 8),
]

# name -> (arguments before the code file, arguments after it)
COMMANDS = {
    "check-all": (["check", "all"], []),
    "check-all-json": (["check", "all"], ["--format", "json"]),
    "wd": (["wd"], []),
    "wd-json": (["wd"], ["--format", "json"]),
    "rgf": (["rgf"], []),
    "rgf-hat": (["rgf"], ["--hat"]),
    "rgf-json": (["rgf"], ["--format", "json"]),
    "polymatroid": (["polymatroid"], []),
    "polymatroid-json": (["polymatroid"], ["--format", "json"]),
    "dual": (["dual"], []),
}


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    assert status == 0, argv
    return out.getvalue()


def cli_digests(directory) -> dict:
    """sha256 of stdout for every command on every code, keyed
    "<code> <command>"."""
    digests = {}
    for field_args, n, m, dim, seed in CODES:
        name = "-".join(a.lstrip("-") for a in field_args) + f"-n{n}-m{m}-k{dim}-s{seed}"
        path = str(pathlib.Path(directory) / f"{name}.json")
        shape = ["--n", str(n), "--m", str(m), "--dim", str(dim), "--seed", str(seed)]
        _stdout(["random-code", *field_args, *shape, "-o", path])
        for command, (before, after) in COMMANDS.items():
            out = _stdout([*before, path, *after])
            digests[f"{name} {command}"] = hashlib.sha256(out.encode()).hexdigest()
    return digests


def test_cli_output_bytes_match_the_recorded_digests(tmp_path):
    expected = json.loads(DIGESTS_PATH.read_text())
    assert len(expected) == len(CODES) * len(COMMANDS)
    actual = cli_digests(tmp_path)
    assert [key for key in actual if actual[key] != expected.get(key)] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(cli_digests(tmp), indent=1))
