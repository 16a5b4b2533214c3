import ast
import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import matroidlab
from matroidlab.cli import main
from matroidlab.matroids import Matroid, from_graph, uniform


def run(argv, capsys, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def write_matroid(tmp_path, m, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(m.to_json()))
    return str(path)


def test_gen_named_pipes_into_check(capsys, monkeypatch):
    code, gen_out, _ = run(["gen", "named", "dualk33"], capsys)
    assert code == 0
    code, out, _ = run(
        ["nbc", "check", "--field", "gf2", "--method", "both"],
        capsys, monkeypatch, stdin_text=gen_out,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "basis"
    assert rep["l_size"] == 20
    assert rep["h"] == [1, 5, 9, 5, 0]
    assert "timing_seconds" not in rep


def test_gen_theta_pipes_into_check(capsys, monkeypatch):
    code, gen_out, _ = run(["gen", "theta", "2,3"], capsys)
    assert code == 0
    wrapped = json.loads(gen_out)
    assert set(wrapped) == {"matroid", "ordering", "name"}
    assert wrapped["ordering"][0] == "p"
    code, out, _ = run(["nbc", "check"], capsys, monkeypatch, stdin_text=gen_out)
    assert code == 0
    assert json.loads(out)["verdict"] == "basis"


def test_regular_binary_matroid_is_searched_over_q(tmp_path, capsys):
    # a parallel pair plus three coloops: regular, though the support of the
    # raw rows admits no totally unimodular signing
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "type": "column", "labels": ["a", "b", "c", "d", "e"], "field": "gf2",
        "matrix": [[0, 1, 1, 1, 1], [0, 0, 0, 0, 1], [1, 1, 1, 1, 0], [1, 1, 0, 1, 1]],
    }))
    tallies = {}
    for field in ("gf2", "q"):
        argv = ["nbc", "search", "--policy", "first-hit", "--field", field, "--input", str(path)]
        code, out, _ = run(argv, capsys)
        assert code == 0, field
        tallies[field] = json.loads(out)["tallies"]
    assert tallies["q"] == tallies["gf2"]


def test_hvector_exact_keys(tmp_path, capsys):
    path = write_matroid(tmp_path, uniform(4, 5))
    code, out, _ = run(["hvector", "--input", path], capsys)
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"f", "h", "facets"}
    assert data["f"] == [1, 5, 10, 10, 4]
    assert data["h"] == [1, 1, 1, 1, 0]
    assert data["facets"] == 4


def test_info_fields(tmp_path, capsys):
    path = write_matroid(tmp_path, uniform(2, 3))
    code, out, _ = run(["info", "--input", path], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 2
    assert data["corank"] == 1
    assert data["bases"] == 3
    assert data["circuits"] == 1
    assert data["loops"] == [] and data["coloops"] == []
    assert data["standard_orderings"] == 6


def test_check_exit_one_when_not_basis(tmp_path, capsys):
    path = write_matroid(tmp_path, uniform(2, 4))
    code, out, _ = run(
        ["nbc", "check", "--input", path, "--field", "gf2"], capsys
    )
    assert code == 1
    rep = json.loads(out)
    assert rep["verdict"] == "not_basis"
    assert rep["reason"] == "lsop_invalid"


def test_bad_json_exits_two(capsys, monkeypatch):
    code, out, err = run(["info"], capsys, monkeypatch, stdin_text="{nope")
    assert code == 2
    assert out == ""
    assert "matroidlab:" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run(["info", "--input", "/no/such/file.json"], capsys)
    assert code == 2
    assert "matroidlab:" in err


@pytest.mark.parametrize("argv,content", (
    (["info", "--input"], None),
    (["info", "--input"], b'{"type": "uniform", "labels": ["\xff"], "rank": 1}'),
    (["info", "--input"], b"[" * 100_000),
    (["info", "--input"], b"1" * 5000),
    (["gen", "named", "k4", "--out"], None),
), ids=("input-directory", "input-not-utf8", "json-too-deep", "integer-too-long", "out-directory"))
def test_os_and_decoding_errors_exit_two(argv, content, tmp_path, capsys):
    # content None makes the path a directory
    path = tmp_path / "doc"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code, out, err = run(argv + [str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("matroidlab: ") and err.count("\n") == 1


def test_unknown_fixture_exits_two(capsys):
    code, _, err = run(["gen", "named", "nope"], capsys)
    assert code == 2
    assert "matroidlab:" in err


def test_gen_without_argument_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "theta"])
    assert exc.value.code == 2


def test_gen_refuses_a_ground_set_past_the_bound(capsys):
    # the ground set is counted before anything is built, so a huge size
    # costs no time or memory; 200 elements is the most that is built
    for sizes in (["theta", "201"], ["phi", "100,102"], ["theta", "100000000000"],
                  ["phi", "3," * 10**5 + "3"]):
        code, out, err = run(["gen", *sizes], capsys)
        assert (code, out) == (2, ""), sizes
        assert err.startswith("matroidlab: ") and err.count("\n") == 1, sizes
        assert "exceeds 200" in err, sizes
    for sizes in (["theta", "200"], ["phi", "100,101"]):
        assert run(["gen", *sizes], capsys)[0] == 0, sizes


def test_gen_list(capsys):
    code, out, _ = run(["gen", "list"], capsys)
    assert code == 0
    names = json.loads(out)
    assert set(names) == {"dualk33", "dualk33raw", "k33", "k4", "r10"}
    assert all(isinstance(v, str) and v for v in names.values())


# sha256 of stdout; the matrices these print depend on every row operation
# of the pivot steps, standard forms and RREFs behind them
# (gen arguments of the input, a Matroid written as the input, or None;
# argv; exit code; sha256 of stdout)
PINNED_OUTPUT = (
    (None, ["gen", "theta", "3,4"], 0, "4b0c6a8d5622aa51eabb94202deb5341f82a92781eb311ef2df0907c0d6c8b31"),
    (None, ["gen", "phi", "2,3,2"], 0, "ff1aa9f09a77686f106fc65c5dafc78b1fefdfd046560f36f0e578f0511bfec4"),
    (["named", "dualk33"], ["lsop", "--field", "q"], 0,
     "75958812eafe0192d5f3404547622e1473f0a397ff96706e5439eea1f7c18c95"),
    (["named", "dualk33"], ["lsop", "--field", "gf3"], 0,
     "8f43c529507b5215992fa1728062de26d4bc2018d0d46edb58db50477c21cb5c"),
    (["named", "k33"], ["nbc", "check", "--field", "q"], 0,
     "22d80f74d773138dbbb3b2e0b98b2d5e39ad831b3465cb3dcefa687e044328f8"),
    # the monomial layer: staircases in both term orders, both decision paths,
    # the lower-ideal walk of a sampled search and criterion 8's seeded draw
    (["named", "dualk33"], ["lsop", "--field", "q", "--standard-monomials"], 0,
     "89eecb8b44f44be7cad94b94f7446dc2e5ec086266378ed235a881b6ffedbc89"),
    (["named", "dualk33"], ["lsop", "--field", "gf3", "--standard-monomials", "--order", "lex"], 0,
     "51a03982792b4cf6afe35b1b818acf4202514d8c5516c43d7dd552e4ba807427"),
    (["named", "k33"], ["nbc", "check", "--field", "q", "--method", "both"], 0,
     "22d80f74d773138dbbb3b2e0b98b2d5e39ad831b3465cb3dcefa687e044328f8"),
    (["theta", "4,4,4"], ["nbc", "check", "--field", "q", "--method", "both"], 0,
     "b651e0a901e1d854857e6fdac1e6f41ed046a13d49f7c7500e08b01232da5dfe"),
    (["named", "r10"], ["nbc", "search", "--field", "gf2", "--policy", "sample:200:1"], 1,
     "21f92a1ebdf5982a7f3ca910eea7f791dc8cea76249a115d573a7727b289012e"),
    (None, ["verify", "paper", "--criterion", "8"], 0,
     "8245a6ad31e220b5ccd1503fdf88c43d57f765e9eb4d76f5c4cf4b53737b62f5"),
    # the signed incidence rows: all four incidence matrices of criterion 6,
    # the facet-rank check of a sampled search over q, and gf3 standard forms
    (None, ["verify", "paper", "--criterion", "6"], 0,
     "f513be78321b6e1425d068d26a15924531f2107ed5f6f68368816d15a45d9032"),
    (["named", "dualk33"], ["nbc", "search", "--field", "q", "--policy", "sample:200:1"], 0,
     "6a8105aadd8edfb17a9d978a4df8c90c89e3fe46c30206eed23ffd1561e4e8e2"),
    (["phi", "2,3,2"], ["nbc", "check", "--field", "gf3"], 0,
     "613aa3e5ac164c74d3843db1a690bbba2e9a4dfed4ec4f2d52ed783569b26cd5"),
    # the forms, substitutions and fundamental cocircuits read off one basis:
    # gf2 rows from the oracle, criterion 1's forms, criterion 7's cocircuit
    # transfer laws, and the gf2 facet walk of U(2,4) stopping at {e1,e2}
    (["phi", "2,3,2"], ["lsop", "--field", "gf2"], 0,
     "356920bf177d589400a290ce41af90380e39f9e4646b5eb7337d0455544c1c0c"),
    (["named", "r10"], ["lsop", "--field", "gf2"], 0,
     "875b4a24b5c2b400e191dcc2b7f20f8559aff6f469d24da961b471e8b8511811"),
    (None, ["verify", "paper", "--criterion", "1"], 0,
     "35683df9e14c1e850d2a4b5bf0bb799a9c7d4ec95b2fac1e4ba62275f5f2b162"),
    (None, ["verify", "paper", "--criterion", "7"], 0,
     "4668fb5ed713c45e549de07872843568756e2936725e6491432aaf8b84c7cc87"),
    (uniform(2, 4), ["lsop", "--field", "gf2"], 0,
     "f4563df68e16a0f494bad74ffcec865e1353b46e6fc914e720d0e335c4fa70a7"),
    # the degree-by-degree staircase: R10's full L of 67 despite 22 > h_3 = 20,
    # and a dualk33 ordering whose degree 3 falls short (4 < h_3 = 5)
    (["named", "r10"], ["nbc", "check", "--field", "gf2"], 1,
     "e26bb78371eee04102402627220a3b7e9587d3e1319fe5ef49284270561e4814"),
    (["named", "dualk33"], ["nbc", "check", "--field", "q", "--ordering", "e3,e2,e7,e5,e9,e1,e4,e6,e8"], 1,
     "81cc778728db0dbec746e30df356e3f8610d905235eb552774205e98881f4231"),
    # the facet count of hvector: R10's 51, the empty matroid's one empty
    # facet, and none when a loop voids the complex
    (["named", "r10"], ["hvector"], 0,
     "5f09fc9bc7e721b924fe431e86e45e2cfc1a96d2f3f979da51d5c5df7bf28ef4"),
    (uniform(0, 0), ["hvector"], 0,
     "e19101c33cd2d723cfc153e6783170e0c6694a48e85329760238285a346fd770"),
    (from_graph([("a", "a"), ("a", "b"), ("b", "c")]), ["hvector"], 0,
     "a68380bdaf19ec0ada9381f704def29e9e16ee232b9da2da1b04640c765ae390"),
)


RANK0_GF5 = {"type": "column", "labels": ["a", "b"], "field": "gf5", "matrix": [[0, 0]]}


@pytest.mark.parametrize("argv", [
    ["lsop", "--field", "gf3"],
    ["nbc", "check", "--field", "gf3"],
    ["nbc", "search", "--field", "gf3"],
    ["lsop", "--field", "q"],
])
def test_rank0_matrix_without_representation_exits_two(tmp_path, capsys, argv):
    # a rank-0 gf5 matrix has no representation over gf3 or q, like any other
    path = tmp_path / "m.json"
    path.write_text(json.dumps(RANK0_GF5))
    code, out, err = run(argv + ["--input", str(path)], capsys)
    assert code == 2 and out == ""
    assert f"cannot convert a gf5 representation to {argv[-1]}" in err


@pytest.mark.parametrize("data,argv", [
    (RANK0_GF5, ["nbc", "check", "--field", "gf5"]),
    ({"type": "uniform", "labels": ["a", "b"], "rank": 0}, ["lsop", "--field", "q"]),
    ({"type": "column", "labels": ["a", "b"], "field": "q", "matrix": [[0, 0]]},
     ["nbc", "check", "--field", "gf3"]),
])
def test_rank0_matrix_with_representation_exits_zero(tmp_path, capsys, data, argv):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(argv + ["--input", str(path)], capsys)
    assert code == 0
    assert json.loads(out)


def test_byte_stable_output(tmp_path, capsys):
    path = write_matroid(tmp_path, uniform(2, 4))
    runs = []
    for _ in range(2):
        code, out, _ = run(
            ["nbc", "search", "--input", path, "--field", "gf2",
             "--policy", "sample:10:7"],
            capsys,
        )
        assert code == 1
        runs.append(out)
    assert runs[0] == runs[1]
    assert runs[0].endswith("\n")


def test_pinned_output(tmp_path, capsys):
    for source, argv, expected, digest in PINNED_OUTPUT:
        if isinstance(source, Matroid):
            argv = argv + ["--input", write_matroid(tmp_path, source)]
        elif source is not None:
            code, gen, _ = run(["gen", *source], capsys)
            assert code == 0, source
            path = tmp_path / "_".join(source)
            path.write_text(gen)
            argv = argv + ["--input", str(path)]
        code, out, _ = run(argv, capsys)
        assert code == expected, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_search_exit_codes_and_shard_merge(tmp_path, capsys):
    path = write_matroid(tmp_path, uniform(2, 4))
    code, out, _ = run(
        ["nbc", "search", "--input", path, "--field", "gf2"], capsys
    )
    assert code == 1
    whole = json.loads(out)
    assert whole["tallies"]["lsop_invalid"] == 24
    assert whole["completed"] is True

    merged = dict.fromkeys(whole["tallies"], 0)
    for i in range(3):
        code, out, _ = run(
            ["nbc", "search", "--input", path, "--field", "gf2",
             "--shard", f"{i}/3"],
            capsys,
        )
        assert code == 1
        part = json.loads(out)
        assert part["shard"] == f"{i}/3"
        for k, v in part["tallies"].items():
            merged[k] += v
    assert merged == whole["tallies"]

    good = write_matroid(tmp_path, uniform(2, 3), "u23.json")
    code, out, _ = run(
        ["nbc", "search", "--input", good, "--field", "q",
         "--policy", "first-hit"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["first_basis"] == {
        "index": 0, "ordering": ["e3", "e1", "e2"]
    }


def test_search_resume(tmp_path, capsys):
    path = write_matroid(tmp_path, uniform(2, 4))
    state = str(tmp_path / "state.json")
    first = run(
        ["nbc", "search", "--input", path, "--field", "gf2",
         "--resume", state, "--checkpoint-every", "5"],
        capsys,
    )
    again = run(
        ["nbc", "search", "--input", path, "--field", "gf2",
         "--resume", state],
        capsys,
    )
    assert first[0] == again[0] == 1
    assert json.loads(first[1])["tallies"] == json.loads(again[1])["tallies"]
    assert json.loads(again[1])["completed"] is True


def test_ordering_precedence(tmp_path, capsys, monkeypatch):
    m = uniform(2, 3)
    wrapped = json.dumps({"matroid": m.to_json(), "ordering": ["e3", "e1", "e2"]})

    code, out, _ = run(["lsop", "--field", "q"], capsys, monkeypatch, stdin_text=wrapped)
    assert code == 0
    assert json.loads(out)["ordering"] == ["e3", "e1", "e2"]

    code, out, _ = run(
        ["lsop", "--field", "q", "--ordering", "e2,e1,e3"],
        capsys, monkeypatch, stdin_text=wrapped,
    )
    assert code == 0
    assert json.loads(out)["ordering"] == ["e2", "e1", "e3"]

    path = write_matroid(tmp_path, m)
    code, out, _ = run(["lsop", "--field", "q", "--input", path], capsys)
    assert code == 0
    assert json.loads(out)["ordering"] == ["e1", "e2", "e3"]


def test_lsop_report(tmp_path, capsys):
    path = write_matroid(tmp_path, uniform(2, 3))
    code, out, _ = run(
        ["lsop", "--input", path, "--field", "q", "--standard-monomials"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert sorted(data["forms"]) == ["-x1 + x2", "x1 + x3"]
    assert data["d"] == [1, 1, 1]
    assert data["lower"] == ["1", "x1"]
    assert data["valid"] is True
    assert data["invalid_facet"] is None
    assert data["groebner_standard_monomials"] == ["1", "x1"]
    assert data["term_order"] == "grlex"
    assert data["generators"][0]["polynomial"] == "-x1^2"


def test_lsop_reports_invalid_facet(tmp_path, capsys):
    path = write_matroid(tmp_path, uniform(2, 4))
    code, out, _ = run(["lsop", "--input", path, "--field", "gf2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is False
    assert data["invalid_facet"] is not None


def test_check_names_the_invalid_facet(tmp_path, capsys):
    path = write_matroid(tmp_path, uniform(2, 4, labels=("a", "b", "c", "d")))
    code, out, _ = run(["nbc", "check", "--input", path, "--field", "gf2"], capsys)
    assert code == 1
    assert out == (
        '{\n  "cardinality_ok": true,\n  "field": "gf2",\n  "h": [\n    1,\n    2,\n    0\n'
        '  ],\n  "independent": null,\n  "l": [\n    "1",\n    "x2",\n    "x1"\n  ],\n'
        '  "l_size": 3,\n  "lsop_valid": false,\n  "ordering": [\n    "a",\n    "b",\n'
        '    "c",\n    "d"\n  ],\n  "quotient_dim": null,\n  "reason": "lsop_invalid",\n'
        '  "verdict": "not_basis",\n  "witness": "{a,b}"\n}\n'
    )
    # U(2,4) has no regular representation, so over q there is no verdict at all
    code, out, _ = run(["nbc", "check", "--input", path, "--field", "q"], capsys)
    assert code == 2 and out == ""


def test_timing_flag_adds_key(tmp_path, capsys):
    path = write_matroid(tmp_path, uniform(2, 3))
    code, out, _ = run(
        ["nbc", "check", "--input", path, "--field", "q", "--timing"], capsys
    )
    assert code == 0
    seconds = json.loads(out)["timing_seconds"]
    assert type(seconds) is float and seconds >= 0


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "matroidlab.cli", "gen", "list"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "r10" in json.loads(proc.stdout)


def test_a_plain_import_leaves_the_criteria_unloaded():
    # the acceptance criteria load on first use; every public name still resolves
    code = (
        "import json, sys, matroidlab\n"
        "loaded = 'matroidlab.verify' in sys.modules\n"
        "missing = [n for n in matroidlab.__all__ if getattr(matroidlab, n, None) is None]\n"
        "print(json.dumps([loaded, missing, 'matroidlab.verify' in sys.modules]))\n"
    )
    src = str(Path(matroidlab.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, [], True]


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no runtime dependencies
    files = sorted(Path(matroidlab.__file__).parent.glob("*.py"))
    assert len(files) > 10
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            for top in tops:
                assert top in sys.stdlib_module_names, (path.name, top)


U23 = {"type": "uniform", "labels": ["a", "b", "c"], "rank": 2}


@pytest.mark.parametrize("argv,data,env", (
    (["info"], {"type": "uniform", "labels": ["a", "b", "c"]}, {}),
    (["info"], {"type": "uniform", "labels": ["a", "b", "c"], "rank": 1.5}, {}),
    (["info"], {"type": "uniform", "labels": ["a", "b", "c"], "rank": "2"}, {}),
    (["info"], {"type": "uniform", "labels": ["a", "b", "c"], "rank": True}, {}),
    (["info"], {"type": "uniform", "rank": 1}, {}),
    (["info"], {"type": "graphic", "labels": ["a"], "edges": [["u"]]}, {}),
    (["info"], {"type": "column", "labels": ["a"], "field": "q", "matrix": [["z"]]}, {}),
    (["info"], {"type": "column", "labels": ["a"], "field": "gfx", "matrix": [[1]]}, {}),
    (["info"], {"type": "circuits", "labels": ["a"], "circuits": [[["a"]]]}, {}),
    (["info"], {"matroid": "not an object"}, {}),
    (["nbc", "check"], {"matroid": U23, "ordering": "cab"}, {}),
    (["nbc", "search", "--shard", "x/2"], U23, {}),
    (["nbc", "search", "--policy", "sample:a:b"], U23, {}),
    (["nbc", "search", "--checkpoint-every", "0"], U23, {}),
    (["nbc", "search"], U23, {"MATROIDLAB_WORKERS": "x"}),
    (["nbc", "check", "--field", "gf18446744073709551629"], {"matroid": U23, "ordering": ["c", "a", "b"]}, {}),
    (["info"], {"type": "column", "labels": ["a", "b"], "field": "q", "matrix": [[0.1, 1]]}, {}),
    (["info"], {"type": "column", "labels": ["a", "b"], "field": "gf2", "matrix": [[1.0, 1]]}, {}),
    (["info"], {"type": "column", "labels": ["a", "b"], "field": "gf3", "matrix": [[0.5, 1]]}, {}),
    (["info"], {"type": "column", "labels": ["a", "b"], "field": "q", "matrix": [[True, 1]]}, {}),
    (["info"], {"type": "column", "labels": ["a", "b"], "field": "q", "matrix": [[None, 1]]}, {}),
    (["info"], {"type": "uniform", "labels": [["a"], "b"], "rank": 1}, {}),
    (["info"], {"type": "uniform", "labels": ["a", 1.5], "rank": 1}, {}),
    (["info"], {"type": "uniform", "labels": ["a", None], "rank": 1}, {}),
    (["info"], {"type": "graphic", "labels": [True], "edges": [["u", "v"]]}, {}),
    (["nbc", "check"], {"matroid": U23, "ordering": ["a", "b", 3]}, {}),
    (["hvector"], {"matroid": U23, "ordering": ["a", "b", ["c"]]}, {}),
    (["lsop"], {"matroid": U23, "ordering": ["a", "b", None]}, {}),
    (["nbc", "check"], {"matroid": U23, "ordering": ["c", "a", True]}, {}),
    (["nbc", "check"], {"matroid": U23, "ordering": ["c", "a", 1.5]}, {}),
    (["info"], {"type": "column", "labels": ["a"], "field": "q", "matrix": [["1e10000000"]]}, {}),
    (["info"], {"type": "column", "labels": ["a"], "field": "q", "matrix": [["1E5"]]}, {}),
    (["info"], {"type": "column", "labels": ["a"], "field": "q", "matrix": [["2.5e-1"]]}, {}),
), ids=(
    "uniform-without-rank", "float-rank", "string-rank", "bool-rank", "no-labels",
    "one-vertex-edge", "bad-entry", "bad-field", "nested-circuit", "matroid-not-object",
    "string-ordering", "bad-shard", "bad-sample", "checkpoint-every-0", "bad-workers-env",
    "field-above-2^64", "float-entry-q", "float-entry-gf2", "float-entry-gf3", "bool-entry",
    "null-entry", "list-label", "float-label", "null-label", "bool-label",
    "int-ordering-item-off-ground", "list-ordering-item", "null-ordering-item",
    "bool-ordering-item", "float-ordering-item", "huge-exponent-entry-q",
    "capital-exponent-entry-q", "negative-exponent-entry-q",
))
def test_malformed_input_exits_two(argv, data, env, capsys, monkeypatch):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, err = run(argv, capsys, monkeypatch, stdin_text=json.dumps(data))
    assert code == 2
    assert out == ""
    assert err.startswith("matroidlab: ") and "Traceback" not in err
    assert err.count("\n") == 1


def test_integer_ordering_items_stand_for_their_decimal_strings(capsys, monkeypatch):
    data = {"matroid": {"type": "uniform", "labels": [1, 2, 3], "rank": 2}, "ordering": [3, 1, 2]}
    code, out, err = run(["nbc", "check"], capsys, monkeypatch, stdin_text=json.dumps(data))
    assert (code, err) == (0, "")
    assert json.loads(out)["ordering"] == ["3", "1", "2"]


# the first standard ordering of U(2,4) and another one
U24_AT_0 = ["e3", "e4", "e1", "e2"]
U24_AT_1 = ["e3", "e4", "e2", "e1"]


def with_basis(state, first_basis, index=0):
    """The state with one lsop_invalid result re-tallied as a basis at `index`."""
    tallies = {**state["tallies"], "basis": 1}
    tallies["lsop_invalid"] -= 1
    return json.dumps({
        **state, "tallies": tallies, "basis_indices": [index], "first_basis": first_basis,
    })


@pytest.mark.parametrize("edit", (
    lambda state: "{bad",
    lambda state: "[" * 100_000,
    lambda state: json.dumps([state]),
    lambda state: json.dumps({k: v for k, v in state.items() if k != "cursor"}),
    lambda state: json.dumps({**state, "cursor": "24"}),
    lambda state: json.dumps({**state, "tallies": [1]}),
    lambda state: json.dumps({**state, "cursor": 1000000000}),
    lambda state: json.dumps({**state, "cursor": -1}),
    lambda state: json.dumps({**state, "tallies": {**state["tallies"], "basis": 1}}),
    lambda state: json.dumps({**state, "basis_indices": ["x"]}),
    lambda state: json.dumps({**state, "first_basis": {"index": 0, "ordering": U24_AT_0}}),
    lambda state: with_basis(state, None),
    lambda state: with_basis(state, {"index": "zz"}),
    lambda state: with_basis(state, {"index": 0}),
    lambda state: with_basis(state, {"index": True, "ordering": U24_AT_0}),
    lambda state: with_basis(state, {"index": 0, "ordering": U24_AT_0, "extra": 1}),
    lambda state: with_basis(state, {"index": 0, "ordering": ["e1", "e2", "e3", "e4"]}),
    lambda state: with_basis(state, {"index": 1, "ordering": U24_AT_1}),
    lambda state: with_basis(state, {"index": 24, "ordering": U24_AT_0}, index=24),
), ids=(
    "not-json", "too-deep", "top-level-list", "no-cursor", "string-cursor", "tallies-list",
    "cursor-past-domain", "negative-cursor", "tallies-off-cursor", "string-basis-index",
    "first-basis-without-basis", "basis-without-first-basis", "string-first-basis-index",
    "first-basis-without-ordering", "bool-first-basis-index", "first-basis-extra-key",
    "first-basis-wrong-ordering", "first-basis-off-the-indices", "basis-index-past-total",
))
def test_corrupt_checkpoint_exits_two(edit, tmp_path, capsys):
    path = write_matroid(tmp_path, uniform(2, 4))
    state = tmp_path / "state.json"
    argv = ["nbc", "search", "--input", path, "--field", "gf2", "--resume", str(state)]
    assert run(argv, capsys)[0] == 1
    state.write_text(edit(json.loads(state.read_text())))
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"matroidlab: checkpoint {state} ") and "Traceback" not in err


def test_checkpoint_with_a_basis_resumes(tmp_path, capsys):
    path = write_matroid(tmp_path, uniform(2, 4))
    state = tmp_path / "state.json"
    argv = ["nbc", "search", "--input", path, "--field", "gf2", "--resume", str(state)]
    run(argv, capsys)
    state.write_text(with_basis(json.loads(state.read_text()), {"index": 0, "ordering": U24_AT_0}))
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert json.loads(out)["first_basis"] == {"index": 0, "ordering": U24_AT_0}


def _mutation_seeds(capsys):
    """The well-formed documents the mutation test starts from."""
    sources = [["named", name] for name in ("dualk33", "dualk33raw", "k33", "k4", "r10")]
    sources += [[family, sizes] for family in ("theta", "phi") for sizes in ("2,2", "3,4", "2,3,2")]
    seeds = []
    for source in sources:
        code, out, _ = run(["gen", *source], capsys)
        assert code == 0, source
        seeds.append(json.loads(out))
    return seeds + [
        {"matroid": uniform(2, 4).to_json(), "ordering": U24_AT_0},
        uniform(2, 4).to_json(),
        {"type": "circuits", "labels": ["a", "b", "c", "d"], "circuits": [["a", "b", "c"], ["d"]]},
    ]


# values of every JSON type, and integers no field or rank accepts
_ODD_VALUES = (1.5, -0.0, True, False, None, 10**40, -(10**40), 0, -1, 2, "x", "", [], {}, [1], {"a": 1})


def _mutate(rng, doc):
    """Change one node of doc: drop a key or item, swap a value for one of
    another type, nest it in a list, or add a key or item."""
    nodes = [doc]
    for node in nodes:  # every object and list in doc, parents first
        nodes.extend(v for v in (node.values() if isinstance(node, dict) else node)
                     if isinstance(v, (dict, list)))
    node = rng.choice(nodes)
    odd = copy.deepcopy(rng.choice(_ODD_VALUES))
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    action = rng.choice(("drop", "swap", "nest", "add", "duplicate")) if keys else "add"
    key = rng.choice(keys) if keys else None
    if action == "drop":
        del node[key]
    elif action == "swap":
        node[key] = odd
    elif action == "nest":
        node[key] = [node[key]]
    elif isinstance(node, dict):
        node[f"extra{len(node)}"] = odd
    elif action == "add":
        node.append(odd)
    else:
        node.insert(key, node[key])


def _mutation_argv(rng):
    field = ["--field", rng.choice(("gf2", "q", "gf3"))]
    command = rng.choice(("info", "hvector", "lsop", "check", "search"))
    if command in ("info", "hvector"):
        return [command]
    if command == "lsop":
        return ["lsop", *field] + ["--standard-monomials"] * rng.randint(0, 1)
    if command == "check":
        return ["nbc", "check", *field, "--method", rng.choice(("macaulay", "groebner", "both"))]
    # only sampled searches: over q R10 has no basis ordering, so a
    # first-hit or exhaustive search of it would run through all of them
    policy = f"sample:{rng.randint(1, 3)}:{rng.randint(0, 9)}"
    return ["nbc", "search", *field, "--policy", policy, "--workers", "1"]


def test_mutated_input_never_crashes(capsys, monkeypatch):
    # every malformed document is refused with exit 2 and one matroidlab
    # line, every well-formed one answered with one JSON document
    rng = random.Random(2026)
    seeds = _mutation_seeds(capsys)
    for case in range(400):
        doc = copy.deepcopy(rng.choice(seeds))
        for _ in range(rng.randint(1, 2)):
            _mutate(rng, doc)
        argv = _mutation_argv(rng)
        where = f"case {case}: {argv} on {json.dumps(doc)}"
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        try:
            code = main(argv)
        except Exception as exc:
            pytest.fail(f"{where} raised {exc!r}")
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), where
        assert "Traceback" not in err, where
        if code == 2:
            assert err.splitlines()[-1].startswith("matroidlab"), where
        else:
            json.loads(out)


# the values each flag is mutated to: well-formed ones, then malformed,
# overlong and non-ASCII ones
_FLAG_VALUES = {
    "--field": ("gf2", "q", "gf3", "GF5", "rational", "gf4", "gf1", "gf", "gf٣", "",
                "gf" + "7" * 30, "gf18446744073709551557"),
    "--policy": ("first-hit", "exhaustive", "sample:3:1", "sample:0:1", "sample:-2:1",
                 "sample:x:1", "sample:3", "sample:3:1:1", "sample:٣:1", "", "all",
                 "sample:3:" + "9" * 5000, "sample:" + "9" * 30 + ":1"),
    "--shard": ("0/1", "1/2", "0/0", "2/2", "-1/2", "x/2", "1", "1/2/3", "", "/", "٠/٢",
                "0/" + "9" * 30),
    "--checkpoint-every": ("1", "0", "-1", "x", "", "1.5", "9" * 30),
    # a process pool forks all its workers at once, so no count above 1
    "--workers": ("1", "0", "-1", "x", ""),
    "--method": ("macaulay", "groebner", "both", "dense"),
    "--order": ("grlex", "lex", "grevlex"),
}
# every value here is refused, since a valid criterion runs it
_BAD_CRITERIA = ("0", "10", "-1", "x", "", "1.5", "1e3", "9" * 30)
_GEN_ARGS = (
    ("theta", "100000000000"), ("theta", "201"), ("phi", "-3"), ("theta", "2,-2"),
    ("phi", "2,,3"), ("theta", ","), ("theta", ""), ("theta", "٣,٤"), ("phi", "２,２"),
    ("theta", "1,1"), ("phi", "2.5"), ("theta", "9" * 5000), ("phi", "2," * 5),
    ("named", "k4"), ("named", "K-4"), ("named", "nope"), ("named", ""), ("list", ""),
)
# entries with an exponent, as JSON strings and as JSON numbers
_EXPONENTS = ("1e10000000", "1E5", "2.5e-1", "-0e0", 1e5, 1e400)


def _argv_flags(rng, *flags):
    out = []
    for flag in flags:
        if rng.random() < 0.5:
            out += [flag, rng.choice(_FLAG_VALUES[flag])]
    return out


def _mutated_ordering(rng, labels):
    labels = list(labels)
    rng.shuffle(labels)
    kind = rng.choice(("permuted", "short", "repeated", "unknown", "empty", "spaced"))
    if kind == "short":
        labels.pop()
    elif kind == "repeated":
        labels[-1] = labels[0]
    elif kind == "unknown":
        labels[0] = rng.choice(("zz", "é", "1e5"))
    elif kind == "empty":
        return rng.choice(("", ",", ",,"))
    return (" , " if kind == "spaced" else ",").join(labels)


def _mutated_command(rng, labels):
    ordering = ["--ordering", _mutated_ordering(rng, labels)] * rng.randint(0, 1)
    command = rng.choice(("info", "hvector", "lsop", "check", "search", "verify", "gen"))
    if command == "info":
        return ["info"]
    if command == "hvector":
        return ["hvector", *ordering]
    if command == "lsop":
        return ["lsop", *_argv_flags(rng, "--field", "--order"), *ordering] + [
            "--standard-monomials"] * rng.randint(0, 1)
    if command == "check":
        return ["nbc", "check", *_argv_flags(rng, "--field", "--method"), *ordering]
    if command == "search":
        flags = _argv_flags(rng, "--field", "--policy", "--shard", "--checkpoint-every", "--workers")
        return ["nbc", "search", *flags] + ordering * rng.randint(0, 1)
    if command == "verify":
        flags = ["--workers", rng.choice(_FLAG_VALUES["--workers"])] * rng.randint(0, 1)
        flags += ["--exhaustive-r10"] * rng.randint(0, 1) + ["--timing"] * rng.randint(0, 1)
        target = rng.choice(("paper", "paper", "papers"))
        return ["verify", target, "--criterion", rng.choice(_BAD_CRITERIA), *flags]
    family, arg = rng.choice(_GEN_ARGS)
    return ["gen", family] + ([arg] if arg or rng.random() < 0.5 else [])


def _mutated_text(rng, doc):
    """doc as JSON text with an exponent entry, a BOM, a cut, or as it is."""
    kind = rng.choice(("plain", "plain", "exponent", "bom", "cut"))
    if kind == "exponent" and doc.get("field") == "q":
        doc = copy.deepcopy(doc)
        doc["matrix"][rng.randrange(len(doc["matrix"]))][0] = rng.choice(_EXPONENTS)
    text = json.dumps(doc)
    if kind == "bom":
        return "\ufeff" + text
    if kind == "cut":
        return text[:rng.randrange(len(text))]
    return text


def test_mutated_argv_never_crashes(capsys, monkeypatch):
    # every malformed command line or input text is refused with exit 2 and
    # a last stderr line from matroidlab, every well-formed one answered
    # with one JSON document; all inputs are small, so exhaustive and
    # first-hit searches end quickly
    monkeypatch.delenv("MATROIDLAB_WORKERS", raising=False)
    rng = random.Random(2027)
    docs = [
        json.loads(run(["gen", "named", "k4"], capsys)[1]),
        json.loads(run(["gen", "theta", "2,3"], capsys)[1]),
        {"matroid": uniform(2, 4).to_json(), "ordering": U24_AT_0},
        {"type": "column", "labels": ["a", "b", "c", "d"], "field": "q",
         "matrix": [["1", "0", "1/2", "3"], ["0", "1", "-1", "0.5"]]},
    ]
    for case in range(400):
        doc = rng.choice(docs)
        labels = (doc.get("matroid") or doc)["labels"]
        argv = _mutated_command(rng, labels)
        text = _mutated_text(rng, doc)
        where = f"case {case}: {argv} on {text[:200]!r}"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a malformed command line
            code = exc.code
        except Exception as exc:
            pytest.fail(f"{where} raised {exc!r}")
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), where
        assert "Traceback" not in err, where
        if code == 2:
            assert err.splitlines()[-1].startswith("matroidlab"), where
        else:
            json.loads(out)
