"""Byte-identity of the outputs against the stored benchmark digests.

`benchmarks/golden.json` holds a digest of every output of the benchmark's
default pass.  This test recomputes two families of them from the library
and the CLI, with digest functions written here, and never rewrites the file:
- `table:a,b,c,sign`: sha256 of repr(sorted((s, 2*delta, rank))) of the
  compute_hfk table, first 16 hex characters;
- `cli:a,b,c,sign`: sha256 of the `compute --format json` record with
  meta.seconds dropped, dumped with sorted keys, first 16 hex characters.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from pretzelhfk import cli
from pretzelhfk.curves import TangleParams
from pretzelhfk.hfk import compute_hfk

GOLDEN = json.loads((Path(__file__).resolve().parent.parent / "benchmarks" / "golden.json").read_text())


def sha16(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def stored(family):
    """(TangleParams, digests) of every stored key `family:a,b,c,sign`."""
    out = []
    for key, digests in GOLDEN.items():
        name, _, knot = key.partition(":")
        if name == family:
            a, b, c, sign = knot.split(",")
            out.append((TangleParams(int(a), int(b), int(c), sign), digests))
    return out


def test_tables_match_the_stored_digests():
    units = stored("table")
    assert len(units) == 886
    for params, digests in units:
        entries = compute_hfk(params).entries
        found = sha16(repr(sorted((s, d.twice, rk) for (s, d), rk in entries.items())))
        assert found == digests["table"], params


def test_cli_records_match_the_stored_digests():
    units = stored("cli")
    assert len(units) == 100
    for p, digests in units:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["compute", "--a", str(p.a), "--b", str(p.b), "--c", str(p.c),
                             "--sign", p.sign, "--format", "json"])
        assert code == 0, p
        record = json.loads(out.getvalue())
        del record["meta"]["seconds"]
        assert sha16(json.dumps(record, sort_keys=True)) == digests["record"], p
