import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import qschur
from qschur import cli
from qschur.cli import COMMANDS, build_parser, main, parse_composition
from qschur.tableaux import COMPOSITION, PARTITION, from_rows, to_json_dict

from oracles import rect_by_ssct_insertion


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tableau(tmp_path, name, kind, rows):
    path = tmp_path / name
    path.write_text(json.dumps(to_json_dict(from_rows(kind, rows))))
    return str(path)


def test_lr_prints_bare_coefficient(capsys):
    code, out, _ = run(capsys, "lr", "--alpha", "1,2", "--beta", "3,2", "--gamma", "1,4,3")
    assert code == 0
    assert out == "2\n"


def test_lr_empty_compositions(capsys):
    code, out, _ = run(capsys, "lr", "--alpha", "empty", "--beta", "empty", "--gamma", "empty")
    assert code == 0
    assert out == "1\n"


def test_skew_fundamental_expansion(capsys):
    code, out, _ = run(capsys, "skew", "--outer", "1,2", "--inner", "1", "--basis", "L")
    assert code == 0
    assert json.loads(out) == {
        "ring": "QSym",
        "basis": "L",
        "terms": [{"index": [1, 1], "coeff": 1}],
    }


def test_product_tsv(capsys):
    code, out, _ = run(capsys, "product", "--alpha", "2", "--beta", "1", "--format", "tsv")
    assert code == 0
    assert out == "3\t1\n2,1\t1\n"


@pytest.mark.parametrize(
    "fmt, sha256",
    [
        ("json", "a0f709a129fae8eb925ce9e417034c75d1b0d4c5f7ed664d750edda267a246dd"),
        ("tsv", "9b13adf1007518bc91b045615c2d18819d5e9f6eb25e1f4407514e308de7fe1f"),
    ],
)
def test_weight_fourteen_product_output_is_pinned(capsys, fmt, sha256):
    code, out, _ = run(
        capsys, "product", "--alpha", "1,3,2,1", "--beta", "2,1,3,1", "--format", fmt
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "alpha, beta, fmt, sha256",
    [
        ("2,2,3,1,2", "3,2,1,2,2", "json", "5ef6bd2c6962fdd60fa956006aa2fcaef6476c100581db0ed40965e7271d7fe7"),
        ("2,2,3,1,2", "3,2,1,2,2", "tsv", "d58597ecaa877c025d0b129ad1766e59e4b433128b76a8a7dd42ed63c0d84204"),
        ("1,3,2,2,1,2", "2,2,3,1,2", "json", "557bd399a6febc1b9e32d9b76ed60abc87efc2e3b5d7decb3a5a08dcaff794ed"),
        ("1,3,2,2,1,2", "2,2,3,1,2", "tsv", "b4956554bf9ccb7dd5564aed5a90425213543ff0f85380669ab52955e8179bb0"),
    ],
    ids=["weight-20-json", "weight-20-tsv", "weight-21-json", "weight-21-tsv"],
)
def test_heavy_product_output_is_pinned(capsys, alpha, beta, fmt, sha256):
    # Computed by the walk that carried every chain, before it was pruned.
    code, out, _ = run(capsys, "product", "--alpha", alpha, "--beta", beta, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "kind, fmt, sha256",
    [
        ("row", "json", "d8d1ef91bec5c7cc578d30121675b85a5ab163dddc9415f1372943906a0e029b"),
        ("row", "tsv", "de7dfebaca113b2672038b1016ff5259eda75bb07091ada1775dcc6ba067c62e"),
        ("column", "json", "13c6172ee3c3d062f442fa028091220486d33e537ba8f84d158820ab194f9707"),
        ("column", "tsv", "8773c96f3da2b1a779955d1796e7c27390c538c142c2bf8ed9162e405d84582c"),
    ],
)
def test_pieri_output_is_pinned(capsys, kind, fmt, sha256):
    # Computed when the pruned walk still listed every composition it cut.
    code, out, _ = run(
        capsys, "pieri", "--kind", kind, "--n", "10", "--beta", "2,3,1,2,2", "--format", fmt
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_output_is_deterministic(capsys):
    first = run(capsys, "product", "--alpha", "1,2", "--beta", "3,2")
    second = run(capsys, "product", "--alpha", "1,2", "--beta", "3,2")
    assert first == second


def test_poset_covers(capsys):
    code, out, _ = run(capsys, "poset", "covers", "--comp", "2,3,2")
    assert code == 0
    data = json.loads(out)
    assert {tuple(d["composition"]) for d in data} == {
        (1, 2, 3, 2),
        (3, 3, 2),
        (2, 4, 2),
    }
    by_comp = {tuple(d["composition"]): d["step"]["kind"] for d in data}
    assert by_comp[(1, 2, 3, 2)] == "prepend-row-1"
    assert by_comp[(3, 3, 2)] == "extend-row"


def test_poset_leq(capsys):
    code, out, _ = run(capsys, "poset", "leq", "--beta", "1,1", "--gamma", "1,2")
    assert (code, out) == (0, "false\n")
    code, out, _ = run(capsys, "poset", "leq", "--beta", "2", "--gamma", "1,2")
    assert (code, out) == (0, "true\n")


def test_poset_interval_chains(capsys):
    code, out, _ = run(capsys, "poset", "interval", "--beta", "1", "--gamma", "2,1")
    assert code == 0
    chains = json.loads(out)
    assert len(chains) == 1
    assert [s["kind"] for s in chains[0]] == ["prepend-row-1", "extend-row"]


def test_enumerate_standard_fillings(capsys):
    code, out, _ = run(capsys, "enumerate", "sct", "--outer", "2,1")
    assert code == 0
    assert json.loads(out) == [
        {"kind": "composition", "outer": [2, 1], "inner": None, "rows": [[2, 1], [3]]}
    ]


def test_enumerate_semistandard_requires_bound(capsys):
    code, _, err = run(capsys, "enumerate", "ssct", "--outer", "2,1")
    assert code == 2
    assert "--max-entry is required for ssct" in err


def test_enumerate_semistandard_rejects_negative_bound(capsys):
    code, out, err = run(capsys, "enumerate", "ssct", "--outer", "2,1", "--max-entry", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: max_entry must be a non-negative int, got -1\n"


def test_enumerate_chains(capsys):
    code, out, _ = run(capsys, "enumerate", "chains", "--outer", "2,1", "--inner", "1")
    assert code == 0
    assert len(json.loads(out)) == 1


def test_rsk_command(capsys):
    code, out, _ = run(capsys, "rsk", "--word", "3,4,2,1")
    assert code == 0
    data = json.loads(out)
    assert data["P"]["rows"] == [[4, 2, 1], [3]]
    assert sorted(x for row in data["Q"]["rows"] for x in row) == [1, 2, 3, 4]


def test_rect_command(tmp_path, capsys):
    rows = [[4, 3, 1], [8, 6], [None, None, 7, 5, 2], [None, None, None], [None, 9]]
    path = write_tableau(tmp_path, "t.json", COMPOSITION, rows)
    code, out, _ = run(capsys, "rect", "--tableau", path)
    assert code == 0
    assert json.loads(out) == to_json_dict(
        rect_by_ssct_insertion(from_rows(COMPOSITION, rows))
    )
    assert json.loads(out)["rows"] == [[4, 3, 1], [8, 7, 5, 2], [9, 6]]


def test_rect_has_no_cross_check_flag(tmp_path, capsys):
    path = write_tableau(tmp_path, "t.json", COMPOSITION, [[1], [3, 2]])
    with pytest.raises(SystemExit) as excinfo:
        main(["rect", "--tableau", path, "--cross-check"])
    assert excinfo.value.code == 2
    assert "--cross-check" in capsys.readouterr().err


def test_rho_round_trip(tmp_path, capsys):
    path = write_tableau(tmp_path, "sct.json", COMPOSITION, [[1], [3, 2]])
    code, out, _ = run(capsys, "rho", "--tableau", path)
    assert code == 0
    packed = json.loads(out)
    assert packed["kind"] == "partition"
    back = tmp_path / "srt.json"
    back.write_text(json.dumps(packed))
    code, out, _ = run(capsys, "rho", "--tableau", str(back), "--inverse")
    assert code == 0
    assert json.loads(out)["rows"] == [[1], [3, 2]]


def test_rho_skew_golden(tmp_path, capsys):
    """Skew rho and its inverse over two bases, each stdout pinned by
    sha256 as well as by its rows."""
    ssct = [[2, 1], [None, 4, 4, 4], [None, None, 2]]
    path = write_tableau(tmp_path, "ssct.json", COMPOSITION, ssct)
    code, out, _ = run(capsys, "rho", "--tableau", path)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "622e7f578081da899a08e90a322e1b5b768b5e697ba76d9d087185475a41bfab"
    )
    assert json.loads(out)["rows"] == [[None, None, 4, 4], [None, 4, 2], [2, 1]]
    srt = tmp_path / "ssrt.json"
    srt.write_text(out)
    for beta, rows, sha256 in [
        ("1,2", ssct, "80427781890c9a2ba7eabafd6470dd354bfb0295de99b89db015f97b203dd22f"),
        (
            "2,1",
            [[2, 1], [None, None, 4, 4], [None, 4, 2]],
            "5e979f47d721abbc0cd775c2bce5a5dcb5d18f1f976ce837489b57d90bc0dc68",
        ),
    ]:
        code, out, _ = run(capsys, "rho", "--tableau", str(srt), "--inverse", "--beta", beta)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256
        assert json.loads(out)["rows"] == rows


def test_pr_product_command(tmp_path, capsys):
    t1 = write_tableau(tmp_path, "t1.json", PARTITION, [[3, 2], [1]])
    t2 = write_tableau(tmp_path, "t2.json", PARTITION, [[3, 2, 1]])
    code, out, _ = run(capsys, "pr-product", "--t1", t1, "--t2", t2)
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 4
    assert [[6, 5, 3, 2, 1], [4]] in [t["rows"] for t in data["terms"]]


def test_pieri_diagnostic_reports_gap(capsys):
    code, out, _ = run(capsys, "pieri", "--kind", "row", "--n", "2", "--beta", "1", "--diagnostic")
    assert code == 0
    assert json.loads(out) == {
        "kind": "row",
        "n": 2,
        "beta": [1],
        "predicted": [[3], [1, 2], [2, 1]],
        "support": [[3], [2, 1]],
        "missing": [[1, 2]],
        "extra": [],
        "nonunit": [],
        "consistent": False,
    }


def test_pieri_product_tsv(capsys):
    code, out, _ = run(capsys, "pieri", "--kind", "column", "--n", "2", "--beta", "1", "--format", "tsv")
    assert code == 0
    rows = dict(line.split("\t") for line in out.splitlines())
    assert rows == {"1,2": "1", "1,1,1": "1"}


def test_ncqsym_qs_rs_golden(capsys):
    code, out, _ = run(capsys, "ncqsym", "qs-rs", "--alpha", "1,2", "--vars", "2")
    assert code == 0
    assert json.loads(out) == {
        "m": 2,
        "commutative": False,
        "terms": [
            {"word": [1, 2, 2], "coeff": 2},
            {"word": [2, 1, 2], "coeff": 2},
            {"word": [2, 2, 1], "coeff": 2},
        ],
    }


def test_ncqsym_chi_check(capsys):
    code, out, _ = run(capsys, "ncqsym", "chi-check", "--alpha", "2,1")
    assert code == 0
    assert json.loads(out) == {"alpha": [2, 1], "vars": 3, "ok": True}


def test_pieri_operator_command(capsys):
    code, out, _ = run(capsys, "pieri-operator", "--gamma", "1,2", "--beta", "1", "--format", "tsv")
    assert code == 0
    assert out == "1,1\t1\n"


def test_verify_command_small(capsys):
    code, out, _ = run(capsys, "verify", "poset", "--max-degree", "3", "--jobs", "1")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert all(c["ok"] for c in report["checks"])


def test_verify_rejects_negative_degree(capsys):
    code, out, err = run(capsys, "verify", "poset", "--max-degree", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: max degree must be nonnegative, not -1\n"


def test_verify_fails_a_check_with_zero_cases(capsys):
    code, out, _ = run(capsys, "verify", "rigidity", "--max-degree", "3", "--jobs", "1")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    check = {c["name"]: c for c in report["checks"]}["uniform-q-moves-stay-in-shape"]
    assert check["ok"] is False
    assert check["cases"] == 0
    assert check["effective_degree"] == 3
    assert check["note"] == "ran 0 cases at max degree 3"


def test_bad_composition_token_exits_two(capsys):
    for argv in (
        ["lr", "--alpha", "1,x", "--beta", "1"],
        ["lr", "--alpha", "1,\u00b2", "--beta", "1"],
        ["rsk", "--word", "\u00b2"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "not a positive integer" in capsys.readouterr().err


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "rect", "--tableau", "/no/such/file.json")
    assert code == 2
    assert "cannot read /no/such/file.json" in err


def test_parse_composition_accepts_empty():
    assert parse_composition("empty") == ()
    assert parse_composition("1,4,3") == (1, 4, 3)


def run_exiting(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PARITY_ARGV = [
    ["skew", "--outer", "2,3", "--inner", "1", "--basis", "S"],
    ["product", "--alpha", "1,2", "--beta", "2", "--format", "tsv"],
    ["poset", "covers", "--comp", "2,1"],
    ["skew", "--inner", "1"],
    ["product", "--alpha", "1"],
    ["skew", "--outer", "2,x"],
    ["skew", "--outer", "2", "--basis", "Q"],
    ["pieri", "--kind", "diagonal", "--n", "1", "--beta", "1"],
    ["skew", "--outer", "2", "extra"],
    ["skew", "--bogus", "--outer", "2", "extra"],
    ["poset", "covers", "--comp", "2,1", "extra"],
    ["poset", "bogus"],
    ["skew", "-h"],
    ["poset", "-h"],
    ["verify", "bogus"],
    ["verify", "-h"],
    ["bogus"],
    ["-h"],
    [],
]


def parse_with_the_full_parser(monkeypatch):
    monkeypatch.setattr(
        cli,
        "_parse_command",
        lambda command, rest: build_parser().parse_args([command, *rest]),
    )


@pytest.mark.parametrize("argv", PARITY_ARGV, ids=" ".join)
def test_main_reads_alike_under_both_parsers(monkeypatch, capsys, argv):
    alone = run_exiting(capsys, argv)
    parse_with_the_full_parser(monkeypatch)
    assert run_exiting(capsys, argv) == alone


@pytest.mark.parametrize("name", list(COMMANDS))
def test_one_command_parser_matches_the_full_one(monkeypatch, capsys, name):
    alone = run_exiting(capsys, [name, "-h"])
    parse_with_the_full_parser(monkeypatch)
    assert run_exiting(capsys, [name, "-h"]) == alone


def test_main_builds_only_its_command(monkeypatch, capsys):
    built = []
    real_add_parser = argparse._SubParsersAction.add_parser

    def counting_add_parser(self, name, **kwargs):
        built.append(name)
        return real_add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
    code, _, _ = run(capsys, "skew", "--outer", "2,1", "--basis", "L")
    assert (code, built) == (0, [])
    # a command's own sub-commands are still sub-parsers of its parser
    code, _, _ = run(capsys, "poset", "covers", "--comp", "2,1")
    assert (code, built) == (0, ["covers", "leq", "interval"])


def test_importing_the_cli_leaves_verify_unloaded():
    src = Path(qschur.__file__).resolve().parents[1]
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import qschur.cli; "
        "print(sorted({'qschur.verify', 'concurrent.futures'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, str(src)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout == "[]\n"
