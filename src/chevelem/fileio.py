"""JSON file formats: matrices (the input of ``chevelem factor``) and
factorization certificates (its output, read back by ``verify``).

All polynomial payloads use the text grammar from exactring, so every
file is human-readable and re-parseable bit-exactly.  Serialization is
deterministic: fixed key order, canonical polynomial text.
"""

from __future__ import annotations

import json

from .errors import ParseError, SizeMismatch
from .exactring import BaseRing, base_ring_from_str, parse_poly
from .rootdata import GroupMatrix, RootSystem, build_root_system, model_size
from .words import ElemWord, FactorizationCertificate


def _group_header(rs: RootSystem, base: BaseRing, nvars: int) -> dict:
    return {
        "group": {"type": rs.kind, "rank": rs.rank},
        "base": str(base),
        "nvars": nvars,
    }


def _read_header(data: dict, rows_key: str):
    """(root system, base, nvars) of a file whose matrix is data[rows_key];
    anything but size lists of size is refused first, as building costs
    rank^3."""
    try:
        group = data["group"]
        kind, rank, nvars = group["type"], group["rank"], data["nvars"]
        if type(rank) is not int or type(nvars) is not int:  # bool and float too
            raise TypeError("rank and nvars must be integers, got %r and %r" % (rank, nvars))
        size = model_size(kind, rank)  # raises UnsupportedType or RankTooLow
        base = base_ring_from_str(data["base"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("malformed header: %s" % exc) from exc
    if nvars < 0 or nvars > 9:
        raise ParseError("nvars out of the supported range 0..9")
    rows = data.get(rows_key)
    shape = [rows] + (rows if isinstance(rows, list) else [])  # the rows, then each row
    if not all(isinstance(r, list) and len(r) == size for r in shape):
        raise SizeMismatch(
            "expected %dx%d matrix for RootSystem(%s, %d)" % (size, size, kind, rank)
        )
    return build_root_system(kind, rank), base, nvars


def matrix_to_dict(m: GroupMatrix) -> dict:
    out = _group_header(m.rs, m.base, m.nvars)
    out["entries"] = [[p.to_text() for p in row] for row in m.entries]
    return out


def _read_matrix(rows, rs: RootSystem, base: BaseRing, nvars: int, spent: list) -> GroupMatrix:
    """The matrix whose rows hold polynomial texts, parsed with spent."""
    return GroupMatrix(rs, [[parse_poly(t, base, nvars, spent=spent) for t in row] for row in rows])


def matrix_from_dict(data: dict) -> GroupMatrix:
    rs, base, nvars = _read_header(data, "entries")
    try:
        return _read_matrix(data["entries"], rs, base, nvars, [0])
    except (KeyError, TypeError) as exc:
        raise ParseError("malformed matrix entries: %s" % exc) from exc


def word_to_records(w: ElemWord) -> list:
    return [{"root": list(r), "arg": a.to_text()} for r, a in w.letters]


def word_from_records(records, rs: RootSystem, base: BaseRing, nvars: int, spent: list) -> ElemWord:
    letters = []
    try:
        for i, rec in enumerate(records):
            root = tuple(rec["root"])
            if not all(type(v) is int for v in root):  # no float, str or bool
                raise ParseError("word record %d: root %r is not a list of integers"
                                 % (i, rec["root"]))
            arg = parse_poly(rec["arg"], base, nvars, spent=spent)
            letters.append((root, arg))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("malformed word record: %s" % exc) from exc
    return ElemWord(rs, letters)


def certificate_to_dict(cert: FactorizationCertificate) -> dict:
    m = cert.target
    out = _group_header(m.rs, m.base, m.nvars)
    out["target"] = [[p.to_text() for p in row] for row in m.entries]
    out["word"] = word_to_records(cert.word)
    out["residual"] = [[p.to_text() for p in row] for row in cert.residual_constant.entries]
    out["verified"] = bool(cert.verified)
    out["word_length"] = len(cert.word)
    out["max_degree"] = cert.word.max_degree()
    return out


def certificate_from_dict(data: dict) -> FactorizationCertificate:
    rs, base, nvars = _read_header(data, "target")
    spent = [0]  # the monomial products of the whole file, as parse_poly counts them
    try:
        target = _read_matrix(data["target"], rs, base, nvars, spent)
        residual = _read_matrix(data["residual"], rs, base, nvars, spent)
        word = word_from_records(data["word"], rs, base, nvars, spent)
        verified = data["verified"]
        if type(verified) is not bool:  # "false", 2 and null too
            raise TypeError("verified must be true or false, got %r" % (verified,))
    except (KeyError, TypeError) as exc:
        raise ParseError("malformed certificate: %s" % exc) from exc
    return FactorizationCertificate(
        target=target, word=word, residual_constant=residual, verified=verified
    )


def dumps(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def save(path: str, data: dict) -> None:
    text = dumps(data)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError("cannot write %s: %s" % (path, exc)) from exc


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
