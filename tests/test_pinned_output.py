"""Pinned CLI output: sha256 of stdout for synth, approx, schedule and route.

Gate order, schedule layers and routed slots are part of the output
contract; any change to them shows up here as a digest mismatch.
"""

import hashlib

import pytest

from toffoli_forge import cli, synth

PINNED = (
    (("synth", "--n", "4"), "167d4f0a8cb249a34f4d22ebf9d4f663d76e6fc790213d916898678376c0fc01"),
    (("synth", "--n", "4", "--approx-k", "3"), "167d4f0a8cb249a34f4d22ebf9d4f663d76e6fc790213d916898678376c0fc01"),
    (("schedule", "--n", "4"), "7f54286813fef735bbd36f647abcef3c495ee6727a725e0d01a6e61a7c8a1af5"),
    (("route", "--n", "4"), "8dc999a6e26849927b736f5ef8443838a5e3e9a63ebce6ae3cff202f77331146"),
    (("synth", "--n", "9"), "17538e177629bc0b00e75aa1e393188a55b0a0c3a738c406431af116c28e5a2a"),
    (("synth", "--n", "9", "--approx-k", "3"), "5614a22429658e257ebaa90bcb86674cf98a390f75c4072eefbc89f0b23a9f0d"),
    (("schedule", "--n", "9"), "c3bca2c28afebef26f5d1883252ae202b54b2b2408f0801d64bd9511280ffd85"),
    (("route", "--n", "9"), "c119d2fcf1fdb7878828a94bcf63816780e54a3fff39c949d9bb0547d95f588b"),
    (("synth", "--n", "17"), "5875bb9b78dcf82b202caa1459d1d27df4708834d77b3a669a5521ee95f649b5"),
    (("synth", "--n", "17", "--approx-k", "3"), "99426aca40bd5b5a68ad3af769831f965ee1c0acb103a9da0d6c91aaaf34eff2"),
    (("schedule", "--n", "17"), "f0926c29b36fb928bdeea0d39629314a02ae00a2f05c5d4297f16303a1f5ced5"),
    (("route", "--n", "17"), "f78396f6968e3479d3c5004ba93ca2f9caed7ed1852e125ec760987c22af5b2b"),
    (("synth", "--n", "64"), "1f7c2c7cf76e353bdc816ffce773504353ebd0242993e56baf50d9381d856d1d"),
    (("synth", "--n", "64", "--approx-k", "3"), "db22402a573ffaaec2fab7bd776d296ec11143d9c2a3798a0dbbbba3e9011da0"),
    (("schedule", "--n", "64"), "3b024d8b272637e093374e865f799a4114e9e55b868123e1625dbf84fee1fab7"),
    (("route", "--n", "64"), "5b43d84a3aca1589dc8fae5184b0a702718720a70647e91f6ab70de82260d132"),
    (("route", "--n", "128"), "ccc2169ba25ee94214849a7c0680804d77ad53438eab46c2a71e5a823cfa6c6e"),
    (("route", "--n", "3"), "8def111f5b0a81b3d577cf9803d2de3b4aed224fb30233ba46b282e010fe8476"),
)


@pytest.mark.parametrize("argv, digest", PINNED, ids=[" ".join(a) for a, _ in PINNED])
def test_stdout_digest(argv, digest, capsys):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_synth_digests_do_not_depend_on_call_order(monkeypatch, capsys):
    # synth cuts its gates from a row table that grows with the widest n
    # built so far; starting from an empty table with the widest n first,
    # every narrower circuit is cut from longer rows and must not change.
    monkeypatch.setattr(synth, "_rows", {})
    pinned = dict(PINNED)
    for n in ("64", "17", "9", "4"):
        for argv in (("synth", "--n", n), ("synth", "--n", n, "--approx-k", "3")):
            assert cli.main(list(argv)) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == pinned[argv], argv
