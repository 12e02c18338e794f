"""JSON file formats: matrices, words, certificates, coverings.

All polynomial payloads use the text grammar from exactring, so every
file is human-readable and re-parseable bit-exactly.  Serialization is
deterministic: fixed key order, canonical polynomial text.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .exactring import BaseRing, base_ring_from_str, parse_poly
from .factorize import FactorizationCertificate
from .localglobal import CoveringData
from .rootdata import GroupMatrix, RootSystem, build_root_system
from .words import ElemWord


def _group_header(rs: RootSystem, base: BaseRing, nvars: int) -> dict:
    return {
        "group": {"type": rs.kind, "rank": rs.rank},
        "base": str(base),
        "nvars": nvars,
    }


def _read_header(data: dict):
    try:
        group = data["group"]
        rs = build_root_system(group["type"], int(group["rank"]))
        base = base_ring_from_str(data["base"])
        nvars = int(data["nvars"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("malformed header: %s" % exc) from exc
    if nvars < 0 or nvars > 9:
        raise ParseError("nvars out of the supported range 0..9")
    return rs, base, nvars


def matrix_to_dict(m: GroupMatrix) -> dict:
    out = _group_header(m.rs, m.base, m.nvars)
    out["entries"] = [[p.to_text() for p in row] for row in m.entries]
    return out


def matrix_from_dict(data: dict) -> GroupMatrix:
    rs, base, nvars = _read_header(data)
    try:
        rows = data["entries"]
        entries = [[parse_poly(t, base, nvars) for t in row] for row in rows]
    except (KeyError, TypeError) as exc:
        raise ParseError("malformed matrix entries: %s" % exc) from exc
    return GroupMatrix(rs, entries)


def word_to_records(w: ElemWord) -> list:
    return [{"root": list(r), "arg": a.to_text()} for r, a in w.letters]


def word_from_records(records, rs: RootSystem, base: BaseRing, nvars: int) -> ElemWord:
    letters = []
    try:
        for rec in records:
            root = tuple(int(v) for v in rec["root"])
            arg = parse_poly(rec["arg"], base, nvars)
            letters.append((root, arg))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("malformed word record: %s" % exc) from exc
    return ElemWord(rs, letters)


def word_to_dict(w: ElemWord, base: BaseRing | None = None, nvars: int = 1) -> dict:
    b, nv = w.base_and_nvars(base, nvars)
    out = _group_header(w.rs, b, nv)
    out["letters"] = word_to_records(w)
    return out


def word_from_dict(data: dict) -> ElemWord:
    rs, base, nvars = _read_header(data)
    return word_from_records(data.get("letters", []), rs, base, nvars)


def certificate_to_dict(cert: FactorizationCertificate) -> dict:
    m = cert.target
    out = _group_header(m.rs, m.base, m.nvars)
    out["target"] = [[p.to_text() for p in row] for row in m.entries]
    out["word"] = word_to_records(cert.word)
    out["residual"] = [[p.to_text() for p in row] for row in cert.residual_constant.entries]
    out["verified"] = bool(cert.verified)
    out["word_length"] = cert.word_length
    out["max_degree"] = cert.max_degree
    return out


def certificate_from_dict(data: dict) -> FactorizationCertificate:
    rs, base, nvars = _read_header(data)
    try:
        target = GroupMatrix(
            rs, [[parse_poly(t, base, nvars) for t in row] for row in data["target"]]
        )
        residual = GroupMatrix(
            rs, [[parse_poly(t, base, nvars) for t in row] for row in data["residual"]]
        )
        word = word_from_records(data["word"], rs, base, nvars)
        verified = bool(data["verified"])
    except (KeyError, TypeError) as exc:
        raise ParseError("malformed certificate: %s" % exc) from exc
    return FactorizationCertificate(
        target=target, word=word, residual_constant=residual, verified=verified
    )


def covering_to_dict(cov: CoveringData) -> dict:
    return {"s": list(cov.elems), "c": list(cov.coeffs), "k": list(cov.exponents)}


def covering_from_dict(data: dict) -> CoveringData:
    try:
        return CoveringData(
            tuple(int(v) for v in data["s"]),
            tuple(int(v) for v in data["c"]),
            tuple(int(v) for v in data["k"]),
        )
    except (KeyError, TypeError) as exc:
        raise ParseError("malformed covering: %s" % exc) from exc


def dumps(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def save(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(data))


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
