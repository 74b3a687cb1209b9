import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qrank.cli
import qrank.delsarte
import qrank.identities
from qrank import QPolymatroid, Subspace, enumerate_subspaces, gf_new
from qrank.cli import main
from qrank.qseries import galois_number


@pytest.fixture
def full_2x2_file(tmp_path):
    obj = {
        "field": {"q": 2},
        "n": 2,
        "m": 2,
        "generators": [
            [[1, 0], [0, 0]],
            [[0, 1], [0, 0]],
            [[0, 0], [1, 0]],
            [[0, 0], [0, 1]],
        ],
    }
    path = tmp_path / "full_2x2_f2.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def zero_2x2_file(tmp_path):
    obj = {"field": {"q": 2}, "n": 2, "m": 2, "generators": []}
    path = tmp_path / "zero_2x2_f2.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_wd_json(full_2x2_file, capsys):
    assert main(["wd", full_2x2_file, "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"rank_distribution": [1, 9, 6], "enumerator": "x^2 + 9*x*y + 6*y^2"}


def test_wd_enumerates_once(full_2x2_file, monkeypatch, capsys):
    enumerated = []
    enumerate_entries = qrank.delsarte.enumerate_codeword_entries

    def counting_enumerate(code, budget=None):
        enumerated.append(code)
        return enumerate_entries(code, budget)

    monkeypatch.setattr(qrank.delsarte, "enumerate_codeword_entries", counting_enumerate)
    assert main(["wd", full_2x2_file]) == 0
    assert len(enumerated) == 1
    assert capsys.readouterr().out == (
        "rank distribution: [1, 9, 6]\nenumerator: x^2 + 9*x*y + 6*y^2\n"
    )


def test_check_all_zero_code(zero_2x2_file, capsys):
    assert main(["check", "all", zero_2x2_file]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 8


def test_check_single_identity_json(full_2x2_file, capsys):
    assert main(["check", "greene", full_2x2_file, "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 1 and reports[0]["pass"]


def test_lattice_count(capsys):
    assert main(["lattice", "--q", "2", "--n", "4", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "67"


def test_lattice_listing(capsys):
    assert main(["lattice", "--q", "2", "--n", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0] == "0"


def test_dual_round_trip(full_2x2_file, tmp_path, capsys):
    # canonicalize the input first, then dual twice must match byte-for-byte
    canon = tmp_path / "canon.json"
    first = tmp_path / "dual1.json"
    second = tmp_path / "dual2.json"
    assert main(["restrict", full_2x2_file, "1,0;0,1", "-o", str(canon)]) == 0
    assert main(["dual", str(canon), "-o", str(first)]) == 0
    assert main(["dual", str(first), "-o", str(second)]) == 0
    assert canon.read_bytes() == second.read_bytes()


def test_restrict_subcommand(full_2x2_file, capsys):
    assert main(["restrict", full_2x2_file, "1,0"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["generators"]) == 2
    # the zero subspace, as `qrank lattice` prints it and as the empty key
    assert main(["restrict", full_2x2_file, "0"]) == 0
    zero = capsys.readouterr().out
    assert json.loads(zero)["generators"] == []
    assert main(["restrict", full_2x2_file, ""]) == 0
    assert capsys.readouterr().out == zero


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2)])
def test_lattice_listing_keys_parse_back(q, n, capsys):
    assert main(["lattice", "--q", str(q), "--n", str(n)]) == 0
    F = gf_new(q)
    keys = capsys.readouterr().out.splitlines()
    assert keys[0] == "0"
    assert [Subspace.from_key(key, n, F) for key in keys] == list(enumerate_subspaces(n, F))


def test_polymatroid_export(full_2x2_file, capsys):
    assert main(["polymatroid", full_2x2_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == '"": 0'
    assert '"1,0;0,1": 4' in lines


def test_rgf_records_sorted(full_2x2_file, capsys):
    assert main(["rgf", full_2x2_file, "--format", "json"]) == 0
    terms = json.loads(capsys.readouterr().out)["terms"]
    exps = [tuple(t[:4]) for t in terms]
    assert exps == sorted(exps)


def test_random_code_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["random-code", "--q", "2", "--n", "3", "--m", "2", "--dim", "3", "--seed", "42"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    obj = json.loads(a.read_text())
    assert obj["seed"] == 42
    assert len(obj["generators"]) == 3


def test_malformed_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["wd", str(bad)]) == 2
    assert main(["wd", str(tmp_path / "missing.json")]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"field": {"q": 2}, "n": 2}))
    assert main(["wd", str(bad2)]) == 2
    assert "error" in capsys.readouterr().err


def _assert_error_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("qrank: error: ") and err.strip() != "qrank: error:"
    assert "Traceback" not in err
    return err


MALFORMED_CODES = {
    "negative-n": {"field": {"q": 2}, "n": -1, "m": 2, "generators": []},
    "zero-shape": {"field": {"q": 2}, "n": 0, "m": 0, "generators": []},
    "top-level-array": [1, 2],
    "string-entry": {"field": {"q": 2}, "n": 1, "m": 2, "generators": [[["a", 0]]]},
    "float-entry": {"field": {"q": 2}, "n": 1, "m": 2, "generators": [[[1.5, 0]]]},
    "entry-out-of-range": {"field": {"q": 3}, "n": 1, "m": 2, "generators": [[[3, 0]]]},
    "field-q-list": {"field": {"q": [2]}, "n": 1, "m": 2, "generators": []},
    "field-q-float": {"field": {"q": 2.5}, "n": 1, "m": 2, "generators": []},
    "field-q-bool": {"field": {"q": True}, "n": 1, "m": 2, "generators": []},
    "field-empty": {"field": {}, "n": 1, "m": 2, "generators": []},
    "field-q-above-limit": {"field": {"q": 2305843009213693951}, "n": 1, "m": 2, "generators": []},
    "field-e-above-limit": {"field": {"p": 2, "e": 40}, "n": 1, "m": 2, "generators": []},
    # raw text: a document json.load cannot nest that deeply
    "deep-nesting": "[" * 100000 + "]" * 100000,
    # json.load refuses an integer literal of more than 4300 digits
    "5000-digit-n": '{"field": {"q": 2}, "n": ' + "1" * 5000 + ', "m": 1, "generators": []}',
}


@pytest.mark.parametrize(
    "command", [["check", "all"], ["wd"], ["polymatroid"]], ids=["check-all", "wd", "polymatroid"]
)
@pytest.mark.parametrize("name", sorted(MALFORMED_CODES))
def test_malformed_code_exit_2(name, command, tmp_path, capsys):
    path = tmp_path / "bad.json"
    doc = MALFORMED_CODES[name]
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    _assert_error_exit_2(command + [str(path)], capsys)


@pytest.mark.parametrize(
    "command", [["check", "all"], ["polymatroid"], ["rgf"]], ids=["check-all", "polymatroid", "rgf"]
)
def test_lattice_above_limit_exit_2(command, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"field": {"q": 2}, "n": 8, "m": 1, "generators": [[[1]] * 8]}))
    start = time.perf_counter()
    err = _assert_error_exit_2(command + [str(path)], capsys)
    assert time.perf_counter() - start < 1
    assert "F_2^8 take 106385745 mask ANDs, above the lattice limit of 4194304" in err
    assert "above the lattice limit of 4194304" in err


def test_lattice_listing_above_budget_exit_2(capsys):
    err = _assert_error_exit_2(["--budget", "4", "lattice", "--q", "2", "--n", "2"], capsys)
    assert "5 subspaces, above the budget of 4" in err
    assert main(["--budget", "5", "lattice", "--q", "2", "--n", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    start = time.perf_counter()
    err = _assert_error_exit_2(["lattice", "--q", "2", "--n", "14", "--dim", "7"], capsys)
    assert time.perf_counter() - start < 1
    assert "subspaces of dimension 7, above the budget of 16777216" in err


def test_lattice_listing_above_entry_limit_exit_2(capsys):
    # one subspace, within the budget, whose key alone has 10^10 entries
    start = time.perf_counter()
    err = _assert_error_exit_2(["lattice", "--q", "2", "--n", "100000", "--dim", "100000"], capsys)
    assert time.perf_counter() - start < 1
    assert "F_2^100000 of dimension 100000 writes 10000000000 key entries, above the listing limit of 16777216" in err
    err = _assert_error_exit_2(["lattice", "--q", "2", "--n", "9"], capsys)
    assert "F_2^9 writes 335480049 key entries" in err


def test_lattice_count_too_long_to_print_exit_2(capsys):
    assert main(["lattice", "--q", "2", "--n", "100", "--count-only"]) == 0
    assert capsys.readouterr().out == f"{galois_number(100, 2)}\n"
    for n in (300, 600):
        start = time.perf_counter()
        err = _assert_error_exit_2(["lattice", "--q", "2", "--n", str(n), "--count-only"], capsys)
        assert time.perf_counter() - start < 1
        assert f"the number of subspaces of F_2^{n} has more than" in err
    # the lower bound 2^14283 has 4300 digits, the count itself 4301
    err = _assert_error_exit_2(["lattice", "--q", "2", "--n", "276", "--dim", "69", "--count-only"], capsys)
    assert "subspaces of F_2^276 of dimension 69 has more than" in err
    for n in [*range(110, 131), 239, 240]:
        assert main(["lattice", "--q", "2", "--n", str(n), "--count-only"]) in (0, 2)
        out, err = capsys.readouterr()
        assert "Traceback" not in err and (out or err)


def test_lattice_of_a_4300_digit_n(capsys):
    n = "9" * 4300
    # 2^(n^2 / 4) is refused from its exponent, itself too long for str()
    err = _assert_error_exit_2(["lattice", "--q", "2", "--n", n], capsys)
    assert "has more than 2^(2^" in err
    # the zero subspace is listed without holding range(n) as a tuple
    assert main(["lattice", "--q", "2", "--n", n, "--dim", "0"]) == 0
    assert capsys.readouterr().out == "0\n"


@pytest.mark.parametrize(
    "budget,command,message",
    [
        (10**4299, ["--n", "250"], "F_2^250 has more than 2^15625 subspaces, above the budget of"),
        (10**4300 - 1, ["--n", "239", "--dim", "119"], "dimension 119 writes more than 2^14280 key entries"),
    ],
    ids=["count", "entries"],
)
def test_lattice_refusal_of_a_size_too_long_to_print_exit_2(budget, command, message, capsys):
    # the size is formed under so large a budget, but str() refuses it
    start = time.perf_counter()
    err = _assert_error_exit_2(["--budget", str(budget), "lattice", "--q", "2", *command], capsys)
    assert time.perf_counter() - start < 2
    assert message in err


def test_code_without_generators_is_refused_without_scanning_its_columns(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"field": {"q": 2}, "n": 100000, "m": 100000, "generators": []}))
    start = time.perf_counter()
    err = _assert_error_exit_2(["check", "all", str(path)], capsys)
    assert time.perf_counter() - start < 1
    assert "|C^perp| = 2^10000000000 exceeds budget 16777216" in err


def test_codeword_budget_refusal_names_q_to_the_k_exit_2(tmp_path, capsys):
    # |C^perp| = 251^1799 has more digits than str() of an int may print
    generator = [[0] * 900 for _ in range(2)]
    generator[0][0] = 1
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"field": {"q": 251}, "n": 2, "m": 900, "generators": [generator]}))
    err = _assert_error_exit_2(["check", "macwilliams", str(path)], capsys)
    assert "|C^perp| = 251^1799 exceeds budget 16777216" in err


@pytest.fixture
def sparse_f2_file(tmp_path):
    # one generator in Mat(2x1000, F_2): C^perp has 2^1999 words
    generator = [[0] * 1000 for _ in range(2)]
    generator[0][0] = 1
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"field": {"q": 2}, "n": 2, "m": 1000, "generators": [generator]}))
    return str(path)


@pytest.fixture
def dense_f251_file(tmp_path):
    path = str(tmp_path / "dense.json")
    assert main(["random-code", "--q", "251", "--n", "2", "--m", "900", "--dim", "1", "--seed", "1", "-o", path]) == 0
    return path


@pytest.mark.parametrize("identity", ["all", "macwilliams"])
@pytest.mark.parametrize(
    "code,size", [("sparse_f2_file", "2^1999"), ("dense_f251_file", "251^1799")], ids=["sparse-f2", "dense-f251"]
)
def test_dual_enumeration_refused_before_the_dual_is_solved(identity, code, size, request, monkeypatch, capsys):
    path = request.getfixturevalue(code)
    solved = []
    monkeypatch.setattr(qrank.identities, "dual_code", lambda C: solved.append(C))
    start = time.perf_counter()
    err = _assert_error_exit_2(["check", identity, path], capsys)
    assert time.perf_counter() - start < 1
    assert f"|C^perp| = {size} exceeds budget 16777216" in err
    assert solved == []


_WORK = "elimination steps, above the rank work limit RANK_WORK_LIMIT = 536870912"
# (random code, --budget, identity, stderr): `check all` admits C, then
# C^perp; `check macwilliams` reads C^perp first, so it names C^perp first
REFUSAL_ORDER = [
    ((2, 5, 10, 25), 2**24, "all", "|C| = 2^25 exceeds budget 16777216"),
    ((2, 5, 10, 25), 2**24, "macwilliams", "|C^perp| = 2^25 exceeds budget 16777216"),
    ((2, 5, 10, 2), 2**24, "all", "|C^perp| = 2^48 exceeds budget 16777216"),
    ((3, 40, 40, 15), 2**24, "all", f"ranking the 7174453 projective words of C takes 459164992000 {_WORK}"),
    ((3, 40, 40, 15), 2**24, "macwilliams", "|C^perp| = 3^1585 exceeds budget 16777216"),
    ((3, 6, 6, 21), 3**21, "all", f"ranking the 5230176601 projective words of C takes 1129718145816 {_WORK}"),
    ((3, 6, 6, 21), 3**21, "macwilliams", f"ranking the 7174453 projective words of C^perp takes 1549681848 {_WORK}"),
    ((3, 6, 6, 10), 3**26, "all",
     f"ranking the 1270932914164 projective words of C^perp takes 274521509459424 {_WORK}"),  # fmt: skip
]


@pytest.mark.parametrize(
    "shape,budget,identity,message", REFUSAL_ORDER, ids=[f"{row[0]}-{row[2]}" for row in REFUSAL_ORDER]
)
def test_which_refusal_fires_first(shape, budget, identity, message, tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "c.json")
    flags = [f"--{name}={value}" for name, value in zip(("q", "n", "m", "dim"), shape)]
    assert main(["random-code", *flags, "--seed", "1", "-o", path]) == 0
    # refused before either side is swept, C^perp is solved or a word is walked
    for owner, name in [(qrank.identities, "from_code"), (qrank.identities, "dual_code"),
                        (qrank.delsarte._Codewords, "_walk")]:  # fmt: skip
        monkeypatch.setattr(owner, name, lambda *args: pytest.fail(f"{name} ran"))
    assert main(["--budget", str(budget), "check", identity, path]) == 2
    assert capsys.readouterr().err == f"qrank: error: {message}\n"


def test_count_only_refuses_a_long_count_without_forming_it(monkeypatch, capsys):
    # [338, 169]_256 >= 256^(169 * 169) = 2^228488, a bound far above 10^4300
    for name in ("galois_number", "gaussian_binomial"):
        monkeypatch.setattr(qrank.cli, name, lambda *args: pytest.fail("the count was formed"))
    for dim in (["--dim", "169"], []):
        start = time.perf_counter()
        err = _assert_error_exit_2(["lattice", "--q", "256", "--n", "338", *dim, "--count-only"], capsys)
        assert time.perf_counter() - start < 1
        of_dim = " of dimension 169" if dim else ""
        assert err == f"qrank: error: the number of subspaces of F_256^338{of_dim} has more than 4300 digits\n"
    monkeypatch.undo()
    assert main(["lattice", "--q", "256", "--n", "4", "--count-only"]) == 0
    assert capsys.readouterr().out == "4345561861\n"


ZERO_1X3000 = {"field": {"q": 2}, "n": 1, "m": 3000, "generators": []}


def test_basis_above_the_limit_is_refused_before_it_is_built_exit_2(tmp_path, capsys):
    # C^perp of the zero Mat(1x3000, F_2) code has 3000 rows of 3000 entries;
    # rgf-duality reads R_{P*} off the sweep of C^perp, so it is refused too
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(ZERO_1X3000))
    for args in (["dual"], ["check", "rgf-duality"], ["check", "dual-polymatroid"]):
        start = time.perf_counter()
        err = _assert_error_exit_2([*args, str(path)], capsys)
        assert time.perf_counter() - start < 1
        assert "the basis of C^perp holds 9000000 entries, above the basis limit BASIS_LIMIT = 1048576" in err, args


def test_code_file_above_the_basis_limit_is_refused_before_it_is_reduced_exit_2(tmp_path, capsys):
    # 1,100 Mat(1x1000, F_2) generators hold 1.1M entries
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"field": {"q": 2}, "n": 1, "m": 1000, "generators": [[[1] * 1000]] * 1100}))
    start = time.perf_counter()
    err = _assert_error_exit_2(["check", "all", str(path)], capsys)
    assert time.perf_counter() - start < 2
    assert "the generators of the code hold 1100000 entries, above the basis limit BASIS_LIMIT = 1048576" in err


def test_code_file_above_32_bytes_an_entry_is_refused_before_it_is_parsed_exit_2(tmp_path, monkeypatch, capsys):
    # a code file is read up to 32 bytes for each entry BASIS_LIMIT admits,
    # here 64: one byte more is refused unparsed, so a file of gigabytes
    # never reaches the JSON parser
    monkeypatch.setattr(qrank.cli, "BASIS_LIMIT", 64)
    doc = json.dumps({"field": {"q": 2}, "n": 1, "m": 1, "generators": [[[1]]]})
    at, over = tmp_path / "at.json", tmp_path / "over.json"
    at.write_text(doc.ljust(32 * 64))
    over.write_text(doc.ljust(32 * 64 + 1))
    assert main(["wd", str(at)]) == 0
    assert capsys.readouterr().out.startswith("rank distribution: [1, 1]\n")
    with monkeypatch.context() as patch:
        patch.setattr(json, "loads", lambda *args, **kwargs: pytest.fail("the file was parsed"))
        err = _assert_error_exit_2(["wd", str(over)], capsys)
    limit = "2048 bytes, 32 for each of the BASIS_LIMIT = 64 entries of a code"
    assert err == f"qrank: error: {over} holds more than {limit}\n"
    over.write_text(" " * 2049)
    assert "holds more than 2048 bytes" in _assert_error_exit_2(["wd", str(over)], capsys)
    # bytes, not characters: a code of 2048 characters in 2054 bytes of
    # UTF-8 is refused, and the same code in 2048 bytes is decoded and loads
    code = json.dumps({"field": {"q": 2}, "n": 1, "m": 1, "generators": [[[1]]], "note": "é" * 6}, ensure_ascii=False)
    over.write_text(code.ljust(2048), encoding="utf-8")
    assert over.stat().st_size == 2054
    assert "holds more than 2048 bytes" in _assert_error_exit_2(["wd", str(over)], capsys)
    at.write_text(code.ljust(2042), encoding="utf-8")
    assert at.stat().st_size == 2048
    assert main(["wd", str(at)]) == 0 and capsys.readouterr().out


def test_code_file_of_more_bytes_than_the_limit_is_refused_unread_exit_2(tmp_path, monkeypatch, capsys):
    # a sparse 1 GiB file and a 40 MiB padded one hold more than the 32
    # BASIS_LIMIT bytes admitted: each is refused by its size, unread
    huge, big = tmp_path / "huge.json", tmp_path / "big.json"
    huge.touch()
    os.truncate(huge, 2**30)
    with open(big, "w") as fh:
        fh.write(json.dumps({"field": {"q": 2}, "n": 1, "m": 1, "generators": []}))
        for _ in range(40):
            fh.write(" " * 2**20)
    limit = "33554432 bytes, 32 for each of the BASIS_LIMIT = 1048576 entries of a code"
    for path in (huge, big):
        tracemalloc.start()
        try:
            err = _assert_error_exit_2(["check", "all", str(path)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err == f"qrank: error: {path} holds more than {limit}\n" and peak < 2**20, (path, peak)
    # 2048 bytes of UTF-8 are read and decoded, 8192 are not
    monkeypatch.setattr(qrank.cli, "BASIS_LIMIT", 64)
    at, over = tmp_path / "at.json", tmp_path / "over.json"
    at.write_text("\U0001F600" * 512, encoding="utf-8")
    over.write_text("\U0001F600" * 2048, encoding="utf-8")
    assert "is not a code file" in _assert_error_exit_2(["wd", str(at)], capsys)
    assert "holds more than 2048 bytes" in _assert_error_exit_2(["wd", str(over)], capsys)


# two documents within the 32 MiB byte limit that name millions of values:
# 11,184,790 empty generators, and one generator of 16,777,166 zeros
VALUE_FLOODS = {
    "empty-lists": lambda: '{"field": {"q": 2}, "n": 1, "m": 1, "generators": [' + "[]," * 11184789 + "[]]}",
    "one-dense-generator": lambda: '{"field": {"q": 2}, "n": 1, "m": 16777166, "generators": [[['
    + "0," * 16777165
    + "0]]]}",
}


@pytest.mark.parametrize("name", sorted(VALUE_FLOODS))
def test_code_file_of_too_many_values_is_refused_by_its_brackets_and_commas_exit_2(name, tmp_path, monkeypatch, capsys):
    # within 32 MiB, a file may hold millions of values, each of which
    # json.loads would build: more `[`, `{` and `,` than a code of
    # BASIS_LIMIT entries holds are refused before the file is decoded
    path = tmp_path / f"{name}.json"
    path.write_text(VALUE_FLOODS[name]().ljust(2**25))
    count = sum(map(path.read_bytes().count, (b"[", b"{", b",")))
    with monkeypatch.context() as patch:
        patch.setattr(json, "loads", lambda *args, **kwargs: pytest.fail("the file was parsed"))
        tracemalloc.start()
        try:
            err = _assert_error_exit_2(["check", "all", str(path)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    limit = "3145760 of a code of BASIS_LIMIT = 1048576 entries"
    assert err == f"qrank: error: {path} holds {count} brackets and commas, above the {limit}\n"
    # the capped read, 32 MiB and one byte, and nothing built from it
    assert peak < 2**25 + 2**20, peak


def test_code_stream_whose_size_reads_0_is_refused_after_the_capped_read_exit_2(tmp_path, monkeypatch, capsys):
    # a pipe's size reads 0, so it is read up to one byte past the limit:
    # an endless stream is refused there, and its writer sees the pipe close
    monkeypatch.setattr(qrank.cli, "BASIS_LIMIT", 64)
    fifo = tmp_path / "code.fifo"
    os.mkfifo(fifo)
    written = []

    def write(data, endless):
        fd = os.open(fifo, os.O_WRONLY)
        try:
            while True:
                written.append(os.write(fd, data))
                if not endless:
                    break
        except BrokenPipeError:
            pass
        finally:
            os.close(fd)

    writer = threading.Thread(target=write, args=(b" " * 2**12, True), daemon=True)
    writer.start()
    err = _assert_error_exit_2(["wd", str(fifo)], capsys)
    writer.join(5)
    assert not writer.is_alive()
    limit = "2048 bytes, 32 for each of the BASIS_LIMIT = 64 entries of a code"
    assert err == f"qrank: error: {fifo} holds more than {limit}\n"
    # a code that fits is read from the pipe whole
    doc = json.dumps({"field": {"q": 2}, "n": 1, "m": 1, "generators": [[[1]]]}).ljust(2048).encode()
    writer = threading.Thread(target=write, args=(doc, False), daemon=True)
    writer.start()
    assert main(["wd", str(fifo)]) == 0
    writer.join(5)
    assert not writer.is_alive()
    assert capsys.readouterr().out.startswith("rank distribution: [1, 1]\n") and written[-1] == 2048


def test_code_files_qrank_writes_load_at_the_byte_limit(tmp_path, monkeypatch, capsys):
    # with BASIS_LIMIT = 64: qrank's indent-2 files of 64 entries, one
    # Mat(64 x 1, F_251) generator of 3-digit entries (the most bytes an
    # entry) and the 8 generators of Mat(8 x 1, F_2) (the most brackets and
    # commas an entry), padded to 2048 bytes, load; a byte more is refused
    monkeypatch.setattr(qrank.cli, "BASIS_LIMIT", 64)
    full_8x1 = [tuple(int(i == j) for j in range(8)) for i in range(8)]
    for field, n, basis in ((gf_new(251), 64, [(1, *[250] * 63)]), (gf_new(2), 8, full_8x1)):
        C = qrank.delsarte.RankMetricCode(Subspace.span(basis, n, field), n, 1)
        text = qrank.cli._code_text(C, {"seed": 0})
        assert len(text) <= 2048 and text.isascii()
        path = tmp_path / f"c{n}.json"
        path.write_text(text.ljust(2048))
        assert main(["wd", str(path)]) == 0 and capsys.readouterr().out
        path.write_text(text.ljust(2049))
        assert "holds more than 2048 bytes" in _assert_error_exit_2(["wd", str(path)], capsys)
    # 64 Mat(1 x 1) generators hold 3 * 64 brackets and commas, the most 64
    # entries can, and 5 more in the rest of the document: counted and parsed
    path.write_text(json.dumps({"field": {"q": 2}, "n": 1, "m": 1, "generators": [[[1]]] * 64}, separators=(",", ":")))
    assert main(["wd", str(path)]) == 0 and capsys.readouterr().out.startswith("rank distribution: [1, 1]\n")


def test_check_all_text_prints_no_rank_table_and_json_prints_the_recorded_bytes(tmp_path, monkeypatch, capsys):
    # a passing report's sides are printed only when read: text mode reads
    # none, and --format json prints the bytes tests/golden_digests.json pins
    path = str(tmp_path / "c.json")
    assert main(["random-code", "--q", "2", "--n", "3", "--m", "2", "--dim", "3", "--seed", "1", "-o", path]) == 0
    with monkeypatch.context() as patch:
        patch.setattr(QPolymatroid, "rank_table_lines", lambda P: pytest.fail("a rank table line was formed"))
        assert main(["check", "all", path]) == 0
    capsys.readouterr()
    assert main(["check", "all", path, "--format", "json"]) == 0
    golden = json.loads((Path(__file__).with_name("golden_digests.json")).read_text())
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == golden["q-2-n3-m2-k3-s1 check-all-json"]


@pytest.mark.parametrize("key", ["0", "1"], ids=["restrict-to-zero", "restrict"])
def test_restrict_of_the_zero_code_needs_no_basis_limit_exit_0(key, tmp_path, capsys):
    # Mat(J) or Mat(J)^perp in Mat(1x3000, F_2) would have 3000 rows of 3000 entries
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(ZERO_1X3000))
    start = time.perf_counter()
    assert main(["restrict", str(path), "--", key]) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out) == ZERO_1X3000


@pytest.mark.parametrize("count_only", [[], ["--count-only"]], ids=["listing", "count-only"])
def test_lattice_negative_dimension_exit_2(count_only, capsys):
    assert main(["lattice", "--q", "2", "--n", "-1", *count_only]) == 2
    assert capsys.readouterr() == ("", "qrank: error: the ambient dimension n must be >= 0, got -1\n")


SHAPE = ["--n", "2", "--m", "2", "--dim", "1"]
# a field is named by its order alone: argparse refuses a missing --q and
# the --p/--e of older releases, which no longer override or extend it
FIELDLESS = [
    (["random-code", *SHAPE], "the following arguments are required: --q"),
    (["lattice", "--n", "2"], "the following arguments are required: --q"),
    (["random-code", "--q", "2", "--e", "3", *SHAPE], "unrecognized arguments: --e 3"),
    (["random-code", "--q", "3", "--p", "2", "--e", "2", *SHAPE], "unrecognized arguments: --p 2 --e 2"),
    (["lattice", "--p", "2", "--e", "8", "--n", "2"], "the following arguments are required: --q"),
]


@pytest.mark.parametrize(
    "command,message", FIELDLESS, ids=["random-code", "lattice", "q-and-e", "q-and-p-e", "lattice-p-e"]
)
def test_a_command_without_a_field_exit_2(command, message, capsys):
    assert main(command) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"qrank: error: {message}\n"


def test_argparse_refusals_return_2_and_help_exits_0(capsys):
    # a refusal of the parser or of a sub-parser comes back from main as
    # any other malformed input does; --help alone still ends the process
    for argv, message in [
        (["lattice", "--q", "2", "--n", "two"], "argument --n: invalid int value: 'two'"),
        (["--budget", "1e3", "lattice", "--q", "2", "--n", "2"], "argument --budget: invalid int value: '1e3'"),
        (["wd"], "the following arguments are required: code"),
        (["nope"], "argument command: invalid choice: 'nope'"),
    ]:
        assert message in _assert_error_exit_2(argv, capsys)
    for argv in (["--help"], ["lattice", "--help"]):
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qrank")


@pytest.mark.parametrize("key", ["5,0", "-1,0", "1,a", "0.5,1"])
def test_restrict_bad_subspace_key_exit_2(key, full_2x2_file, capsys):
    _assert_error_exit_2(["restrict", full_2x2_file, "--", key], capsys)


@pytest.mark.parametrize(
    "shape",
    [
        ["--q", "2", "--n", "0", "--m", "2", "--dim", "0"],
        ["--q", "2", "--n", "2", "--m", "0", "--dim", "0"],
        ["--q", "2", "--n", "2", "--m", "3", "--dim", "7"],
        ["--q", "2", "--n", "2", "--m", "3", "--dim", "-1"],
        # n m has 8600 digits, too many for str()
        ["--q", "2", "--n", "9" * 4300, "--m", "9" * 4300, "--dim", "-1"],
        ["--q", "1", "--n", "2", "--m", "2", "--dim", "1"],
        ["--q", "6", "--n", "2", "--m", "2", "--dim", "1"],
        ["--q", "257", "--n", "2", "--m", "2", "--dim", "1"],
    ],
    ids=["n=0", "m=0", "dim-too-large", "dim-negative", "dim-negative-huge-shape", "q=1", "q=6", "q=257"],
)
def test_random_code_bad_shape_exit_2(shape, tmp_path, capsys):
    out = tmp_path / "c.json"
    _assert_error_exit_2(["random-code"] + shape + ["-o", str(out)], capsys)
    assert not out.exists()


def test_random_code_above_the_basis_limit_is_refused_before_drawing_exit_2(tmp_path, capsys):
    # one generator of 10^10 entries
    out = tmp_path / "c.json"
    start = time.perf_counter()
    err = _assert_error_exit_2(["random-code", "--q", "2", "--n", "100000", "--m", "100000", "--dim", "1", "-o", str(out)], capsys)
    assert time.perf_counter() - start < 1
    assert "holds 10000000000 entries, above the basis limit BASIS_LIMIT = 1048576" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["wd"], ["check", "greene"]], ids=["wd", "greene"])
def test_rank_distribution_of_a_huge_zero_code_is_refused_exit_2(command, tmp_path, capsys):
    # a code without generators loads at any n, but (A_0, ..., A_n) has n + 1 counts
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"field": {"q": 5}, "n": 10**30, "m": 1, "generators": []}))
    err = _assert_error_exit_2(command + [str(path)], capsys)
    assert f"(A_0, ..., A_n) holds {10**30 + 1} entries, above the basis limit BASIS_LIMIT = 1048576" in err


def test_rank_distribution_of_a_wide_zero_code_walks_no_word(tmp_path, capsys):
    # the zero word alone would hold 3 * 10^30 entries
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"field": {"q": 5}, "n": 3, "m": 10**30, "generators": []}))
    assert main(["wd", str(path)]) == 0
    assert capsys.readouterr().out == "rank distribution: [1, 0, 0, 0]\nenumerator: x^3\n"


@pytest.mark.parametrize(
    "command", [["wd"], ["rgf"], ["dual"], ["polymatroid"], ["check", "all"], ["check", "macwilliams"]]
)
def test_sizes_of_a_zero_code_with_4300_digit_n_and_m_are_named_by_a_bound_exit_2(command, tmp_path, capsys):
    # n m has 8600 digits and n^2 m^2 17200, too many for str()
    path = tmp_path / "c.json"
    path.write_text('{"field": {"q": 2}, "n": %s, "m": %s, "generators": []}' % ("9" * 4300, "9" * 4300))
    err = _assert_error_exit_2(command + [str(path)], capsys)
    assert "more than 2^" in err


def test_non_utf8_code_file_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"field": {"q": 2}, "n": 1, "m": 1, "generators": [], "note": "\xe9"}')
    _assert_error_exit_2(["wd", str(path)], capsys)


def test_internal_errors_are_not_reported_as_malformed_input(full_2x2_file, monkeypatch):
    def broken(a):
        raise ValueError("internal bug")

    monkeypatch.setitem(qrank.cli.IDENTITY_CHECKS, "greene", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["check", "greene", full_2x2_file])


def test_failed_check_exit_1(tmp_path, monkeypatch, capsys):
    obj = {"field": {"q": 2}, "n": 2, "m": 2, "generators": [[[1, 0], [0, 1]]]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(obj))
    assert main(["check", "all", str(path)]) == 0
    # invalid budget is malformed input
    assert main(["--budget", "0", "check", "greene", str(path)]) == 2
    # a failing report maps to exit 1
    from qrank.identities import IDENTITY_CHECKS, IdentityReport

    failing = IdentityReport("synthetic", {}, "a", "b", False, "forced")
    monkeypatch.setitem(IDENTITY_CHECKS, "greene", lambda a: [failing])
    assert main(["check", "greene", str(path)]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every CLI call pays its imports; these two cost about 9 ms of a cold child
    probe = (
        "import json, sys; before = set(sys.modules); import qrank.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qrank.cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60, check=True)
    added = json.loads(out.stdout)
    assert "qrank.cli" in added
    assert "dataclasses" not in added and "inspect" not in added, added


# valid code files the exit-code property mutates
BASE_CODES = [
    {"field": {"q": 2}, "n": 2, "m": 2, "generators": [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]},
    {"field": {"q": 3}, "n": 2, "m": 3, "generators": [[[1, 2, 0], [0, 1, 1]]]},
    {"field": {"p": 2, "e": 2}, "n": 1, "m": 3, "generators": [[[3, 1, 0]]]},
    {"field": {"p": 2, "e": 2, "modulus": [1, 1, 1]}, "n": 2, "m": 1, "generators": [[[1], [2]]]},
    {"field": {"q": 5}, "n": 3, "m": 1, "generators": []},
]
# JSON text that json.dumps cannot write, spliced in for its quoted name
RAW_VALUES = {"<huge>": "9" * 5000, "<deep>": "[" * 100000 + "]" * 100000, "<nan>": "NaN", "<inf>": "-Infinity"}
# small ints keep every lattice at most F_q^4 and, as one mutation leaves at
# most one member changed, every C^perp within the default budget at most
# 5^9 words, so an example takes under 1 s; huge ones lie past every limit
SMALL_INTS = st.integers(-3, 4)
HUGE_INTS = st.sampled_from([2**20 + 1, 10**30, -(10**30), int("9" * 4300)])
JSON_VALUES = st.one_of(
    SMALL_INTS, HUGE_INTS, st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
    st.sampled_from(sorted(RAW_VALUES)), st.lists(SMALL_INTS, max_size=3), st.just({}),
)  # fmt: skip


def _mutate(doc, data):
    """A copy of a JSON value with a few of its members replaced, deleted or
    wrapped."""
    if not data.draw(st.integers(0, 3), label="mutate here?") or not isinstance(doc, (dict, list)) or not doc:
        return doc
    doc = dict(doc) if isinstance(doc, dict) else list(doc)
    keys = list(doc) if isinstance(doc, dict) else list(range(len(doc)))
    key = data.draw(st.sampled_from(keys), label="member")
    action = data.draw(st.sampled_from(["replace", "recurse", "recurse", "delete", "wrap"]), label="action")
    if action == "replace":
        doc[key] = data.draw(JSON_VALUES, label="value")
    elif action == "recurse":
        doc[key] = _mutate(doc[key], data)
    elif action == "delete":
        del doc[key]
    else:
        doc[key] = [doc[key]]
    return doc


@st.composite
def code_bytes(draw):
    """The bytes of a code file: a valid one, a mutated one, or mutated text."""
    doc = _mutate(draw(st.sampled_from(BASE_CODES), label="base"), draw(st.data()))
    text = json.dumps(doc)
    for name, raw in RAW_VALUES.items():
        text = text.replace(json.dumps(name), raw)
    data = text.encode()
    edit = draw(st.sampled_from(["none", "none", "truncate", "non-utf8", "top-level-list"]), label="text edit")
    cut = draw(st.integers(0, len(data)), label="at")
    if edit == "truncate":
        data = data[:cut]
    elif edit == "non-utf8":
        data = data[:cut] + b"\xff" + data[cut:]
    elif edit == "top-level-list":
        data = b"[" + data + b"]"
    return data


def _int_text(draw, label):
    return str(draw(st.one_of(SMALL_INTS, HUGE_INTS), label=label))


def _field_args(draw):
    # F_27 is left out: listing the subspaces of F_27^4 takes minutes
    q = draw(st.sampled_from(["2", "3", "4", "5", "7", "8", "9", "1", "0", "-2", "6", "257", "x", None]), label="--q")
    return [] if q is None else ["--q", q]


@st.composite
def cli_argv(draw, code_path, out_path):
    """argv for `qrank`: every subcommand, with drawn options and budget."""
    argv = []
    command = draw(st.sampled_from(["wd", "rgf", "dual", "restrict", "polymatroid", "check", "random-code", "lattice"]))
    if draw(st.booleans(), label="give --budget"):
        # a huge budget only where limits of their own bound the work: it
        # would let `check all` enumerate 5^12 words of a mutated code's C^perp
        huge = [10**4299] if command == "lattice" else []
        budget = draw(st.one_of(st.integers(-2, 2**24), st.sampled_from([*huge, "1e3"])), label="--budget")
        argv += ["--budget", str(budget)]
    argv.append(command)
    if command == "random-code":
        argv += _field_args(draw)
        argv += ["--n", _int_text(draw, "--n"), "--m", _int_text(draw, "--m"), "--dim", _int_text(draw, "--dim")]
        argv += ["--seed", str(draw(st.integers(0, 3), label="--seed"))]
    elif command == "lattice":
        argv += _field_args(draw) + ["--n", _int_text(draw, "--n")]
        if draw(st.booleans(), label="give --dim"):
            argv += ["--dim", _int_text(draw, "--dim")]
        if draw(st.booleans(), label="--count-only"):
            argv.append("--count-only")
    else:
        if command == "check":
            argv.append(draw(st.sampled_from(sorted([*qrank.cli.IDENTITY_CHECKS, "all", "nope"])), label="identity"))
        argv.append(draw(st.sampled_from([code_path] * 3 + [code_path + ".missing"]), label="code path"))
        if command == "restrict":
            key = draw(st.sampled_from(["0", "", "1", "1,0", "0,1", "1,0;0,1", "2,1", "5,0", "-1,0", "1,a", "9" * 5000]))
            argv += ["--", key] if draw(st.booleans(), label="--") else [key]
        if command in ("wd", "rgf", "polymatroid", "check") and draw(st.booleans(), label="--format"):
            argv += ["--format", draw(st.sampled_from(["text", "json", "xml"]), label="format")]
        if command == "rgf" and draw(st.booleans(), label="--hat"):
            argv.append("--hat")
    if command != "check" and draw(st.booleans(), label="-o"):
        argv += ["-o", draw(st.sampled_from([out_path, out_path + "/missing/dir.json"]), label="output")]
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_every_argv_exits_0_1_or_2(tmp_path, data):
    # the exit-code contract: 0 all pass, 1 a check failed, 2 malformed
    # input or a refused budget, and no exception escapes main
    code_path, out_path = str(tmp_path / "code.json"), str(tmp_path / "out.json")
    with open(code_path, "wb") as fh:
        fh.write(data.draw(code_bytes(), label="code file"))
    argv = data.draw(cli_argv(code_path, out_path), label="argv")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        status = main(argv)
    assert status in (0, 1, 2), (argv, status, err.getvalue())
    assert "Traceback" not in err.getvalue()
