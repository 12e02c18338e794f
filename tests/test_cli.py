"""File formats, CLI verbs, exit codes, determinism."""

import copy
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from chevelem.cli import (
    EXIT_BAD_INPUT,
    EXIT_MISMATCH,
    EXIT_NOT_FACTORED,
    EXIT_OK,
    build_parser,
    cohn_matrix,
    main,
    run_relation_suite,
)
from chevelem import exactring, factorize
from chevelem.errors import ParseError, RankTooLow
from chevelem.exactring import BaseRing, MultiPoly
from chevelem.factorize import FactorizationCertificate, factor_polynomial, random_elementary_word
from chevelem.fileio import (
    certificate_from_dict,
    certificate_to_dict,
    dumps,
    matrix_from_dict,
    matrix_to_dict,
)
from chevelem.rootdata import FORM_SIGN, GroupMatrix, RootSystem, build_root_system
from chevelem.words import ElemWord, eval_word

Z = BaseRing.integers()
A2 = build_root_system("A", 2)


def cohn_dict():
    return {
        "group": {"type": "A", "rank": 2},
        "nvars": 1,
        "base": "Z",
        "entries": [
            ["1+2*x1", "x1^2", "0"],
            ["-4", "1-2*x1", "0"],
            ["0", "0", "1"],
        ],
    }


# -- file formats ---------------------------------------------------------------


def test_matrix_roundtrip():
    g = matrix_from_dict(cohn_dict())
    again = matrix_from_dict(matrix_to_dict(g))
    assert again == g


def test_matrix_parse_errors():
    with pytest.raises(ParseError):
        matrix_from_dict({"group": {"type": "A", "rank": 2}})
    bad = cohn_dict()
    bad["entries"][0][0] = "x7^"
    with pytest.raises(ParseError):
        matrix_from_dict(bad)


def test_matrix_rank_gate():
    bad = cohn_dict()
    bad["group"]["rank"] = 1
    with pytest.raises(RankTooLow):
        matrix_from_dict(bad)


def test_certificate_roundtrip():
    g = matrix_from_dict(cohn_dict())
    cert = factor_polynomial(g)
    d = certificate_to_dict(cert)
    again = certificate_from_dict(d)
    assert again.target == cert.target
    assert again.word == cert.word
    assert again.residual_constant == cert.residual_constant
    assert dumps(certificate_to_dict(again)) == dumps(d)


@pytest.mark.parametrize(
    "flag", [True, False, "false", "no", 2, 0, [], None], ids=repr
)
def test_certificate_verified_flag_is_a_json_boolean(tmp_path, capsys, flag):
    d = certificate_to_dict(factor_polynomial(matrix_from_dict(cohn_dict())))
    d["verified"] = flag
    if type(flag) is bool:
        assert certificate_from_dict(d).verified is flag
        return
    message = "malformed certificate: verified must be true or false, got %r" % (flag,)
    with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
        certificate_from_dict(d)
    path = tmp_path / "flag.json"
    path.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["verify", "--in", str(path)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("invalid input: " + message)


# -- relations verb ----------------------------------------------------------------


def test_relations_pass(capsys):
    code = main(["relations", "--type", "A", "--rank", "2", "--trials", "5", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "PASS" in out


def test_relations_rank_gate(capsys):
    code = main(["relations", "--type", "A", "--rank", "1"])
    assert code == EXIT_BAD_INPUT


@pytest.mark.parametrize(
    "argv,expected",
    [
        (
            ["--type", "A", "--rank", "2", "--trials", "5", "--seed", "7"],
            "relations A2: pairs=24 trials=5 commutator_failures=0 "
            "additivity_failures=0 torus_failures=0\nresult: PASS\n",
        ),
        (
            ["--type", "C", "--rank", "2", "--trials", "3", "--seed", "11"],
            "relations C2: pairs=48 trials=3 commutator_failures=0 "
            "additivity_failures=0 torus_failures=0\nresult: PASS\n",
        ),
    ],
    ids=["A2", "C2"],
)
def test_relations_stdout_pinned(capsys, argv, expected):
    assert main(["relations"] + argv) == EXIT_OK
    assert capsys.readouterr().out == expected


def test_type_choices_are_the_type_table():
    # relations and roundtrip offer exactly the types rootdata models
    verbs = build_parser()._subparsers._group_actions[0].choices
    for verb in ("relations", "roundtrip"):
        action = next(a for a in verbs[verb]._actions if a.dest == "type")
        assert list(action.choices) == list(FORM_SIGN)


@pytest.mark.parametrize("kind,failures", [("A", 35), ("C", 63)])
def test_relations_torus_check_catches_a_wrong_pairing(monkeypatch, kind, failures):
    # the torus check compares h x_b(t) with x_b(+-t) h; a pairing off by
    # one flips the expected sign at u = -1, so only zero draws still pass
    real = RootSystem.pairing
    monkeypatch.setattr(RootSystem, "pairing", lambda rs, b, a: real(rs, b, a) + 1)
    report = run_relation_suite(kind, 2, 5, 7)
    assert report["failures"] == {"commutator": 0, "additivity": 0, "torus": failures}
    assert not report["ok"]


def test_relations_deterministic(capsys):
    main(["relations", "--type", "C", "--rank", "2", "--trials", "3", "--seed", "11"])
    first = capsys.readouterr().out
    main(["relations", "--type", "C", "--rank", "2", "--trials", "3", "--seed", "11"])
    second = capsys.readouterr().out
    assert first == second


# -- factor and verify verbs ----------------------------------------------------------


def test_factor_and_verify_flow(tmp_path, capsys):
    matrix_file = tmp_path / "cohn3.json"
    cert_file = tmp_path / "cert.json"
    matrix_file.write_text(json.dumps(cohn_dict()))
    code = main(["factor", "--in", str(matrix_file), "--out", str(cert_file)])
    assert code == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "--in", str(cert_file)]) == EXIT_OK


def test_factor_identity(tmp_path, capsys):
    data = cohn_dict()
    data["entries"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    matrix_file = tmp_path / "identity.json"
    cert_file = tmp_path / "cert.json"
    matrix_file.write_text(json.dumps(data))
    assert main(["factor", "--in", str(matrix_file), "--out", str(cert_file)]) == EXIT_OK
    cert = certificate_from_dict(json.loads(cert_file.read_text()))
    assert len(cert.word) == 0


def test_factor_sl2_rejected(tmp_path, capsys):
    data = {
        "group": {"type": "A", "rank": 1},
        "nvars": 1,
        "base": "Z",
        "entries": [["1+2*x1", "x1^2"], ["-4", "1-2*x1"]],
    }
    matrix_file = tmp_path / "sl2_cohn.json"
    matrix_file.write_text(json.dumps(data))
    code = main(["factor", "--in", str(matrix_file)])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_INPUT
    assert "rank" in err.lower()


@pytest.mark.parametrize("rank", [10**6, 10**100], ids=["1e6", "1e100"])
@pytest.mark.parametrize("kind", ["A", "C"])
def test_huge_header_rank_refused_before_building(tmp_path, capsys, kind, rank):
    # a 1x1 matrix under a huge rank exits 3 at once: the root system,
    # cubic in the rank, is never built
    header = {"group": {"type": kind, "rank": rank}, "nvars": 1, "base": "Z"}
    matrix_file = tmp_path / "matrix.json"
    matrix_file.write_text(json.dumps(dict(header, entries=[["1"]])))
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(
        json.dumps(dict(header, target=[["1"]], residual=[["1"]], word=[], verified=True))
    )
    start = time.perf_counter()
    assert main(["factor", "--in", str(matrix_file)]) == EXIT_BAD_INPUT
    assert main(["verify", "--in", str(cert_file)]) == EXIT_BAD_INPUT
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.count("matrix for RootSystem(%s, %d)" % (kind, rank)) == 2


def test_matrix_that_is_not_lists_refused_before_building(tmp_path, capsys):
    # a 90-byte file whose matrix is a string exits 3 at once: A400 is
    # never built (at rank 200 that build took seconds)
    header = {"group": {"type": "A", "rank": 400}, "nvars": 1, "base": "Z"}
    matrix_file = tmp_path / "matrix.json"
    matrix_file.write_text(json.dumps(dict(header, entries="x")))
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(
        json.dumps(dict(header, target="x", residual="x", word=[], verified=True))
    )
    start = time.perf_counter()
    assert main(["factor", "--in", str(matrix_file)]) == EXIT_BAD_INPUT
    assert main(["verify", "--in", str(cert_file)]) == EXIT_BAD_INPUT
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.count("expected 401x401 matrix") == 2


@pytest.mark.parametrize(
    "field,value",
    [("base", 7), ("base", ["Z"]), ("rank", 2.5), ("rank", True), ("nvars", 1.5), ("nvars", True)],
    ids=["base-int", "base-list", "rank-float", "rank-bool", "nvars-float", "nvars-bool"],
)
def test_header_of_wrong_type_exits_bad_input(tmp_path, capsys, field, value):
    # a base that is not a string, or a rank or nvars that is not an
    # integer, is invalid input for both verbs, not truncated by int()
    header = {"group": {"type": "A", "rank": 2}, "nvars": 1, "base": "Z"}
    if field == "rank":
        header["group"]["rank"] = value
    else:
        header[field] = value
    ident = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    matrix_file = tmp_path / "matrix.json"
    matrix_file.write_text(json.dumps(dict(header, entries=ident)))
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(
        json.dumps(dict(header, target=ident, residual=ident, word=[], verified=True))
    )
    assert main(["factor", "--in", str(matrix_file)]) == EXIT_BAD_INPUT
    assert main(["verify", "--in", str(cert_file)]) == EXIT_BAD_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("invalid input: ") == 2


def test_factor_nonmember_rejected(tmp_path, capsys):
    data = cohn_dict()
    data["entries"][0][0] = "2+2*x1"
    matrix_file = tmp_path / "bad.json"
    matrix_file.write_text(json.dumps(data))
    assert main(["factor", "--in", str(matrix_file)]) == EXIT_BAD_INPUT


def test_factor_internal_fault_is_not_invalid_input(tmp_path, capsys, monkeypatch):
    # a fault in the program (here free_reduce dropping the last letter)
    # trips its own multiply-back: exit 1, not 3, on a valid SL3(Z[x]) member
    real = factorize.free_reduce
    monkeypatch.setattr(factorize, "free_reduce", lambda w: ElemWord(w.rs, real(w).letters[:-1]))
    matrix_file = tmp_path / "cohn3.json"
    matrix_file.write_text(json.dumps(cohn_dict()))
    assert main(["factor", "--in", str(matrix_file)]) == EXIT_MISMATCH
    out, err = capsys.readouterr()
    assert out == ""
    assert "own check failed" in err and "invalid input" not in err


def test_factor_determinism(tmp_path, capsys):
    matrix_file = tmp_path / "m.json"
    matrix_file.write_text(json.dumps(cohn_dict()))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["factor", "--in", str(matrix_file), "--out", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


_HASH_SEED_PROBE = """
from chevelem.factorize import factor_polynomial, random_elementary_word
from chevelem.fileio import certificate_to_dict, dumps
from chevelem.rootdata import build_root_system
from chevelem.words import eval_word
for kind, seed, length in (("A", 104, 15), ("C", 303, 10)):
    w = random_elementary_word(build_root_system(kind, 2), seed, length)
    print(dumps(certificate_to_dict(factor_polynomial(eval_word(w)))))
"""


def test_factor_certificate_independent_of_hash_seed():
    # greedy tie-breaks must not follow set iteration order, which varies
    # with string hashing; these two inputs expose it when they do
    src = str(Path(__file__).resolve().parent.parent / "src")
    texts = []
    for hash_seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            env=env, capture_output=True, text=True, check=True,
        )
        texts.append(proc.stdout)
    assert texts[0] and texts[0] == texts[1]


def test_verify_detects_perturbation(tmp_path, capsys):
    matrix_file = tmp_path / "m.json"
    cert_file = tmp_path / "cert.json"
    matrix_file.write_text(json.dumps(cohn_dict()))
    main(["factor", "--in", str(matrix_file), "--out", str(cert_file)])
    data = json.loads(cert_file.read_text())
    mutated = copy.deepcopy(data)
    mutated["word"][0]["arg"] = mutated["word"][0]["arg"] + " + 1"
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(mutated))
    capsys.readouterr()
    assert main(["verify", "--in", str(bad_file)]) == EXIT_MISMATCH


def test_verify_reads_hand_edited_text(tmp_path, capsys, monkeypatch):
    matrix_file = tmp_path / "m.json"
    cert_file = tmp_path / "cert.json"
    matrix_file.write_text(json.dumps(cohn_dict()))
    main(["factor", "--in", str(matrix_file), "--out", str(cert_file)])
    data = json.loads(cert_file.read_text())
    assert data["target"][0][1] == "x1^2"
    # equal polynomials in forms emit_poly never writes
    edited = copy.deepcopy(data)
    edited["target"][0][1] = " (x1 + 1) *  x1 - x1"
    arg = edited["word"][0]["arg"]
    edited["word"][0]["arg"] = "2*(%s)  -  (%s)" % (arg, arg)
    for text in (edited["target"][0][1], edited["word"][0]["arg"]):
        assert exactring._read_canonical(text, 1) is None
    general = []
    real = exactring._parse_general
    monkeypatch.setattr(
        exactring,
        "_parse_general",
        lambda text, nvars, spent: general.append(text) or real(text, nvars, spent),
    )
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(edited))
    capsys.readouterr()
    assert main(["verify", "--in", str(path)]) == EXIT_OK
    assert general == [edited["target"][0][1], edited["word"][0]["arg"]]
    # a different polynomial on the same path is rejected
    edited["target"][0][1] = "(x1 + 1) * x1"
    path.write_text(json.dumps(edited))
    assert main(["verify", "--in", str(path)]) == EXIT_MISMATCH


def _forged_certificate(residual):
    return {
        "group": {"type": "A", "rank": 2},
        "nvars": 1,
        "base": "Z",
        "target": residual,
        "word": [],
        "residual": residual,
        "verified": True,
        "word_length": 0,
        "max_degree": 0,
    }


@pytest.mark.parametrize(
    "residual",
    [cohn_dict()["entries"], [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
    ids=["not-constant", "not-in-group"],
)
def test_verify_enforces_residual_contract(tmp_path, capsys, residual):
    # word * residual = target holds, but the residual must be constant and in G(R)
    data = _forged_certificate(residual)
    assert not certificate_from_dict(data).check()
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(data))
    assert main(["verify", "--in", str(forged)]) == EXIT_MISMATCH


def test_verify_malformed_root(tmp_path, capsys):
    data = _forged_certificate(cohn_dict()["entries"])
    data["word"] = [{"root": ["a", 0, 0], "arg": "x1"}]
    with pytest.raises(ParseError):
        certificate_from_dict(data)
    bad = tmp_path / "bad_root.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", "--in", str(bad)]) == EXIT_BAD_INPUT


def _drop(key):
    return lambda data: data.pop(key)


def _drop_arg(data):
    data["word"][0].pop("arg")


def _int_entry(data):
    data["entries"][0][0] = 1


def _list_arg(data):
    data["word"][0]["arg"] = ["x1"]


def _list_target_entry(data):
    data["target"][0][0] = []


def _list_entry(data):
    data["entries"][0][0] = [[]]


IDENTITY_ROWS = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


@pytest.mark.parametrize(
    "verb, edit, message",
    [
        ("verify", _drop("residual"), "malformed certificate: 'residual'"),
        ("verify", _drop("verified"), "malformed certificate: 'verified'"),
        ("verify", _drop_arg, "malformed word record: 'arg'"),
        ("factor", _int_entry, "malformed matrix entries: "),
        ("verify", _list_arg, "malformed word record: polynomial text must be a string, not list"),
        ("verify", _list_target_entry,
         "malformed certificate: polynomial text must be a string, not list"),
        ("factor", _list_entry, "malformed matrix entries: polynomial text must be a string, not list"),
    ],
    ids=["no-residual", "no-verified", "no-arg", "int-entry", "list-arg", "list-target-entry",
         "list-entry"],
)
def test_malformed_file_exits_3_naming_what_is_missing(tmp_path, capsys, verb, edit, message):
    if verb == "verify":
        data = _forged_certificate(IDENTITY_ROWS)
        data["word"] = [{"root": [1, -1, 0], "arg": "x1"}, {"root": [1, -1, 0], "arg": "-x1"}]
    else:
        data = cohn_dict()
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main([verb, "--in", str(path)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("invalid input: " + message)
    read = certificate_from_dict if verb == "verify" else matrix_from_dict
    with pytest.raises(ParseError, match="^" + re.escape(message)):
        read(data)


@pytest.mark.parametrize(
    "root",
    [[-1.4, 1.4, 0.3], [1.0, -1.0, 0.0], ["1", -1, 0], [True, -1, 0]],
    ids=["fractional", "integral-float", "string", "bool"],
)
def test_verify_root_coordinates_are_ints(tmp_path, capsys, root):
    # int() would read each of these as a root of A2; only ints are coordinates
    data = certificate_to_dict(factor_polynomial(cohn_matrix()))
    data["word"].insert(1, {"root": root, "arg": "x1"})
    with pytest.raises(ParseError, match=r"word record 1: root .* not a list of integers"):
        certificate_from_dict(data)
    bad = tmp_path / "float_root.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", "--in", str(bad)]) == EXIT_BAD_INPUT
    assert "word record 1" in capsys.readouterr().err


def test_verify_deep_parentheses(tmp_path, capsys):
    cert = factor_polynomial(cohn_matrix())
    data = certificate_to_dict(cert)
    data["word"][0]["arg"] = "(" * 400 + "x1" + ")" * 400
    bad = tmp_path / "deep.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", "--in", str(bad)]) == EXIT_BAD_INPUT


@pytest.mark.parametrize(
    "args",
    [["x1^1048576"], ["x1^600000", "x1^600000"]],
    ids=["letter-past-cap", "product-past-cap"],
)
def test_verify_degree_past_the_cap(tmp_path, capsys, args):
    # a letter past the degree cap is a parse error; letters under it
    # whose product crosses it fail in the kernel; both exit 3
    data = certificate_to_dict(factor_polynomial(cohn_matrix()))
    roots = ([1, -1, 0], [0, 1, -1])
    data["word"] = [{"root": root, "arg": arg} for root, arg in zip(roots, args)] + data["word"]
    bad = tmp_path / "cap.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", "--in", str(bad)]) == EXIT_BAD_INPUT
    assert "exceeds the cap 1048575" in capsys.readouterr().err


def test_verify_power_past_the_longest_literal(tmp_path, capsys):
    # a constant power whose value no literal could spell is refused by
    # the reader, before it is computed, and the verb exits 3
    data = certificate_to_dict(factor_polynomial(cohn_matrix()))
    data["word"][0]["arg"] = "(2)^30000000"
    bad = tmp_path / "power.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", "--in", str(bad)]) == EXIT_BAD_INPUT
    assert "coefficient exceeds" in capsys.readouterr().err


def test_verify_power_of_a_sum_past_the_longest_literal(tmp_path, capsys):
    # a power of a sum whose coefficients could outgrow every literal is
    # refused by the reader before it is multiplied out, and the verb exits 3
    data = certificate_to_dict(factor_polynomial(cohn_matrix()))
    data["word"][0]["arg"] = "(" + "9" * 300 + " + x1)^128"
    bad = tmp_path / "power.json"
    bad.write_text(json.dumps(data))
    start = time.perf_counter()
    assert main(["verify", "--in", str(bad)]) == EXIT_BAD_INPUT
    assert time.perf_counter() - start < 1.0
    assert "coefficient exceeds" in capsys.readouterr().err


def test_verify_bounds_the_products_of_one_file(tmp_path, capsys):
    # eight arguments under the product bound each, past it together
    data = certificate_to_dict(factor_polynomial(cohn_matrix()))
    for rec in data["word"]:
        rec["arg"] = "*".join(["(1+x1)"] * 330)
    bad = tmp_path / "products.json"
    bad.write_text(json.dumps(data))
    start = time.perf_counter()
    assert main(["verify", "--in", str(bad)]) == EXIT_BAD_INPUT
    assert time.perf_counter() - start < 1.0
    assert "monomial products" in capsys.readouterr().err


def test_verify_prime_field_past_the_cap(tmp_path, capsys):
    # 2^64 + 13 is the smallest prime past the cap on a prime-field
    # modulus; the header is refused before any primality work
    data = certificate_to_dict(factor_polynomial(cohn_matrix()))
    data["base"] = "F18446744073709551629"
    bad = tmp_path / "field.json"
    bad.write_text(json.dumps(data))
    start = time.perf_counter()
    assert main(["verify", "--in", str(bad)]) == EXIT_BAD_INPUT
    assert time.perf_counter() - start < 1.0
    assert "below 2^64" in capsys.readouterr().err


def test_usage_error_exit_code(tmp_path, capsys):
    # argparse's own exit status 2 would read as NotFactored
    matrix_file = tmp_path / "m.json"
    matrix_file.write_text(json.dumps(cohn_dict()))
    for argv in (["factor"], ["factor", "--in", str(matrix_file), "--budget-letters", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_BAD_INPUT


ROUNDTRIP_A2 = ["roundtrip", "--type", "A", "--rank", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["relations", "--type", "A", "--rank", "2", "--trials", "0"],
        ["relations", "--type", "A", "--rank", "2", "--trials", "-3"],
        ROUNDTRIP_A2 + ["--trials", "-2"],
        ROUNDTRIP_A2 + ["--vars", "-1"],
        ROUNDTRIP_A2 + ["--length", "-1"],
    ],
)
def test_count_out_of_range_is_a_usage_error(capsys, argv):
    # not a PASS over no trials, a negative count echoed, or a traceback
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_BAD_INPUT
    assert "is below" in capsys.readouterr().err


def test_zero_vars_and_length_are_counts(capsys):
    assert main(ROUNDTRIP_A2 + ["--trials", "1", "--vars", "0", "--length", "0"]) == EXIT_OK
    assert "1 verified" in capsys.readouterr().out


@pytest.mark.parametrize("verb", ["demo", "factor"])
def test_unwritable_out_is_invalid_input(tmp_path, capsys, verb):
    matrix_file = tmp_path / "m.json"
    matrix_file.write_text(json.dumps(cohn_dict()))
    argv = [verb, "--out", str(tmp_path / "missing" / "c.json")]
    if verb == "factor":
        argv += ["--in", str(matrix_file)]
    assert main(argv) == EXIT_BAD_INPUT
    assert "cannot write" in capsys.readouterr().err


def test_verify_truncated_file(tmp_path):
    bad = tmp_path / "trunc.json"
    bad.write_text('{"group": {"type": "A"')
    assert main(["verify", "--in", str(bad)]) == EXIT_BAD_INPUT


@pytest.mark.parametrize("verb", ["verify", "factor"])
@pytest.mark.parametrize(
    "content", [b'{"group": \xff\xfe', b"[" * 200000], ids=["bad-utf8", "deep-nesting"]
)
def test_unreadable_json_is_invalid_input(tmp_path, capsys, verb, content):
    # a UnicodeDecodeError or a RecursionError in the reader is bad input
    # (exit 3), not a crash that exits 1 like a rejected certificate
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main([verb, "--in", str(bad)]) == EXIT_BAD_INPUT
    assert "cannot read" in capsys.readouterr().err


# past the 4300 digits that int() reads by default
HUGE_LITERAL = "1" + "0" * 5000


def test_factor_oversized_literal(tmp_path, capsys):
    data = cohn_dict()
    data["entries"][2][2] = HUGE_LITERAL
    matrix_file = tmp_path / "huge.json"
    matrix_file.write_text(json.dumps(data))
    assert main(["factor", "--in", str(matrix_file)]) == EXIT_BAD_INPUT
    assert "literal too long" in capsys.readouterr().err


def test_verify_oversized_target_literal(tmp_path, capsys):
    data = certificate_to_dict(factor_polynomial(cohn_matrix()))
    data["target"][2][2] = HUGE_LITERAL
    cert_file = tmp_path / "huge.json"
    cert_file.write_text(json.dumps(data))
    assert main(["verify", "--in", str(cert_file)]) == EXIT_BAD_INPUT
    assert "literal too long" in capsys.readouterr().err


def test_factor_oversized_word_coefficient(tmp_path, capsys, monkeypatch):
    # writing a certificate whose word holds a coefficient past the limit
    # fails with ParseError, so the verb exits 3 instead of tracing back
    from chevelem import cli as cli_mod

    def oversized(g):
        huge = MultiPoly.const(Z, 1, 10**5000)
        word = ElemWord(A2, [((1, -1, 0), huge), ((1, -1, 0), -huge)])
        ident = GroupMatrix.identity(A2, Z, 1)
        return FactorizationCertificate(target=g, word=word, residual_constant=ident, verified=True)

    monkeypatch.setattr(cli_mod, "factor_polynomial", oversized)
    matrix_file = tmp_path / "m.json"
    matrix_file.write_text(json.dumps(cohn_dict()))
    assert main(["factor", "--in", str(matrix_file)]) == EXIT_BAD_INPUT
    assert "coefficient too long" in capsys.readouterr().err


def test_factor_budget_exit_code(tmp_path, capsys, monkeypatch):
    from chevelem import cli as cli_mod
    from chevelem.errors import NotFactored

    def exhausted(*args, **kwargs):
        raise NotFactored("forced budget exhaustion")

    monkeypatch.setattr(cli_mod, "factor_polynomial", exhausted)
    matrix_file = tmp_path / "m.json"
    matrix_file.write_text(json.dumps(cohn_dict()))
    code = main(["factor", "--in", str(matrix_file)])
    err = capsys.readouterr().err
    assert code == EXIT_NOT_FACTORED
    assert "not a non-membership proof" in err


def test_factor_greedy_stall_is_not_a_resource_limit(tmp_path, capsys):
    # the greedy search stalls on this word's matrix long before
    # Budget.max_steps; a larger budget would not help
    g = eval_word(random_elementary_word(A2, 5013, 30), Z, 1)
    matrix_file = tmp_path / "stall.json"
    matrix_file.write_text(dumps(matrix_to_dict(g)))
    code = main(["factor", "--in", str(matrix_file)])
    out, err = capsys.readouterr()
    assert code == EXIT_NOT_FACTORED
    assert out == ""
    assert "not factored:" in err
    assert "resource limit" not in err


def test_roundtrip_verb(capsys):
    code = main(
        [
            "roundtrip",
            "--type",
            "A",
            "--rank",
            "2",
            "--trials",
            "3",
            "--seed",
            "5",
            "--length",
            "6",
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "3 verified" in out


def test_roundtrip_greedy_stall(capsys):
    # trial 1 of this seed stalls the greedy search; a stall is reported
    # as such, not as a spent budget
    argv = ["roundtrip", "--type", "A", "--rank", "2", "--trials", "2"]
    code = main(argv + ["--seed", "0", "--length", "30"])
    out = capsys.readouterr().out
    assert code == EXIT_NOT_FACTORED
    assert "trial 1: NOT FACTORED (greedy stall)" in out
    assert "1 verified" in out
    assert "1 not factored" in out
    assert "budget" not in out


def test_demo(tmp_path, capsys):
    out = tmp_path / "cohn_cert.json"
    code = main(["demo", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == EXIT_OK
    assert "replay verification: exact match" in stdout
    assert out.exists()


def test_cohn_matrix_membership():
    from chevelem.rootdata import membership_check

    g = cohn_matrix()
    assert membership_check(g, g.rs)
