"""CLI surface: flags, formats, exit codes, and file output."""

from __future__ import annotations

import json

import pytest

from scsort import parse_perm
from scsort.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- map ---

def test_map_basic(capsys):
    code, out, _ = run(capsys, "map", "--sigma", "213", "--perm", "52413")
    assert code == 0
    assert out == "21345\n"


def test_map_cro_line(capsys):
    code, out, _ = run(capsys, "map", "--sigma", "213", "--perm", "52413", "--cro")
    assert code == 0
    assert out == "21345\nCRO 2\n"


def test_map_trace(capsys):
    code, out, _ = run(capsys, "map", "--sigma", "213", "--perm", "52413", "--trace")
    assert code == 0
    assert out == (
        "PUSH 5\nPUSH 2\nPOP_SIGMA 2\nPUSH 4\nPUSH 1\nPOP_SIGMA 1\nPUSH 3\n"
        "POP_DRAIN 3\nPOP_DRAIN 4\nPOP_DRAIN 5\nOUTPUT 21345\nCRO 2\n"
    )


def test_map_separated_form(capsys):
    # each pending entry pops its predecessor: 9, 8, ..., 1 then drain 10
    code, out, _ = run(capsys, "map", "--sigma", "123", "--perm",
                       "10 9 8 7 6 5 4 3 2 1")
    assert code == 0
    assert out == "9 8 7 6 5 4 3 2 1 10\n"
    assert parse_perm(out.strip()) == (9, 8, 7, 6, 5, 4, 3, 2, 1, 10)


def test_map_out_file(capsys, tmp_path):
    path = tmp_path / "result.txt"
    code, out, err = run(capsys, "map", "--sigma", "213", "--perm", "52413",
                         "--out", str(path))
    assert code == 0
    assert out == ""
    assert str(path) in err
    assert path.read_text() == "21345\n"


def test_out_into_missing_directory(capsys, tmp_path):
    path = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "map", "--sigma", "213", "--perm", "52413",
                         "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not path.exists()


# --- fertility / preimages ---

def test_fertility_count(capsys):
    code, out, _ = run(capsys, "fertility", "--sigma", "213", "--perm", "1243")
    assert code == 0
    assert out == "2\n"


def test_fertility_list_matches_preimages_subcommand(capsys):
    code_a, out_a, _ = run(capsys, "fertility", "--sigma", "312", "--perm", "1243",
                           "--list")
    code_b, out_b, _ = run(capsys, "preimages", "--sigma", "312", "--perm", "1243")
    assert code_a == code_b == 0
    assert out_a == out_b == "3142\n3214\n3421\n"


def test_fertility_json(capsys):
    code, out, _ = run(capsys, "fertility", "--sigma", "213", "--perm", "1243",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"sigma": "213", "target": "1243", "count": 2}


def test_preimages_json(capsys):
    code, out, _ = run(capsys, "preimages", "--sigma", "213", "--perm", "1243",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "sigma": "213", "target": "1243", "count": 2,
        "preimages": ["3412", "3421"],
    }


def test_no_prune_flag(capsys):
    code, out, _ = run(capsys, "preimages", "--sigma", "213", "--perm", "1243",
                       "--no-prune")
    assert code == 0
    assert out == "3412\n3421\n"


def test_enumeration_guard_exit(capsys):
    big = " ".join(str(i) for i in range(1, 13))
    code, _, err = run(capsys, "fertility", "--sigma", "123", "--perm", big)
    assert code == 2
    assert "--force" in err


# --- construct ---

def test_construct_target_and_preimages(capsys):
    code, out, _ = run(capsys, "construct", "--sigma", "123", "--n", "3",
                       "--preimages")
    assert code == 0
    assert out == "3214\n4123\n4312\n4321\n"


def test_construct_json(capsys):
    code, out, _ = run(capsys, "construct", "--sigma", "213", "--n", "6",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"sigma": "213", "n": 6, "target": "1243567"}


def test_construct_below_floor(capsys):
    code, _, err = run(capsys, "construct", "--sigma", "213", "--n", "4")
    assert code == 2
    assert "n >= 6" in err


# --- spectrum ---

def test_spectrum_text(capsys):
    code, out, _ = run(capsys, "spectrum", "--sigma", "213", "--n", "3")
    assert code == 0
    assert out == "sigma: 213\nn: 3\nfertility histogram:\n  0: 1\n  1: 4\n  2: 1\n"


def test_spectrum_csv_stdout(capsys):
    code, out, _ = run(capsys, "spectrum", "--sigma", "213", "--n", "2",
                       "--format", "csv")
    assert code == 0
    assert out == "permutation,fertility\n12,1\n21,1\n"


def test_spectrum_csv_files_with_companion(capsys, tmp_path):
    path = tmp_path / "s3.csv"
    code, out, _ = run(capsys, "spectrum", "--sigma", "213", "--n", "3",
                       "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("permutation,fertility\n")
    companion = tmp_path / "s3_histogram.csv"
    assert companion.read_text() == "fertility,count\n0,1\n1,4\n2,1\n"


def test_spectrum_json_file_by_suffix(capsys, tmp_path):
    path = tmp_path / "s2.json"
    code, _, _ = run(capsys, "spectrum", "--sigma", "213", "--n", "2",
                     "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text()) == {
        "sigma": "213", "n": 2,
        "counts": {"12": 1, "21": 1},
        "histogram": {"1": 2},
    }


def test_spectrum_explicit_format_beats_suffix(capsys, tmp_path):
    path = tmp_path / "s2.json"
    code, _, _ = run(capsys, "spectrum", "--sigma", "213", "--n", "2",
                     "--out", str(path), "--format", "text")
    assert code == 0
    assert path.read_text().startswith("sigma: 213\n")


# --- verify ---

def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "3",
                       "--claims", "figure1,table_small_213")
    assert code == 0
    assert "figure1" in out
    assert "2 claims: 2 passed, 0 failed" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--claims", "figure1",
                       "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert records[0]["claim_id"] == "figure1"
    assert records[0]["status"] == "pass"


def test_verify_fails_with_exit_one(capsys, monkeypatch):
    from scsort import sc_machine

    original = sc_machine._pop_rule

    def inverted(sigma):
        rule = original(sigma)
        return lambda pending, top, second: not rule(pending, top, second)

    monkeypatch.setattr(sc_machine, "_pop_rule", inverted)
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--claims", "figure1")
    assert code == 1
    assert "FAIL" in out


def test_verify_unknown_claim(capsys):
    code, _, err = run(capsys, "verify", "--claims", "lemma9")
    assert code == 2
    assert "unknown claim" in err


def test_verify_bad_max_n(capsys):
    code, _, err = run(capsys, "verify", "--max-n", "99", "--claims", "figure1")
    assert code == 2
    assert "max_n" in err


# --- usage errors ---

def test_bad_sigma_names_argument(capsys):
    code, _, err = run(capsys, "map", "--sigma", "999", "--perm", "123")
    assert code == 2
    assert "--sigma" in err


def test_bad_perm_names_argument(capsys):
    code, _, err = run(capsys, "map", "--sigma", "123", "--perm", "122")
    assert code == 2
    assert "--perm" in err


def test_missing_required_flag(capsys):
    code, _, err = run(capsys, "map", "--sigma", "123")
    assert code == 2
    assert "--perm" in err


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "map" in out and "verify" in out


# --- round-trip of printed permutations ---

@pytest.mark.parametrize("argv,line_count", [
    (("map", "--sigma", "213", "--perm", "52413"), 1),
    (("preimages", "--sigma", "123", "--perm", "3214"), 3),
    (("construct", "--sigma", "312", "--n", "3", "--preimages"), 4),
])
def test_printed_permutations_reparse(capsys, argv, line_count):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == line_count
    for line in lines:
        parse_perm(line)


@pytest.mark.parametrize("claims", [",", " , ", ""])
def test_verify_empty_claim_selection(capsys, claims):
    code, out, err = run(capsys, "verify", "--max-n", "3", "--claims", claims)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --claims")
