"""Canonical output pins: every runnable algorithm, byte for byte.

Each runnable algorithm runs at n = 16, seeds 0 and 1, on the batched
engine, and its canonical JSONL line (:meth:`RunReport.to_json_line`) is
compared by SHA-256 with a checked-in digest, next to its rounds,
messages and bits.  Every round at n = 16 is small, so one larger run
joins them: coloring at n = 256, seed 0, whose aggregations and
hash-agreement broadcasts submit bulk typed rounds next to small object
rounds (its multicasts ship objects at every size).  A change that is
meant to be invisible (a faster
round path, a cheaper decoder) must leave every pin as it is; a change
that moves canonical output on purpose updates the pins in the same
commit and says why.

The runs happen in fresh interpreters under ``PYTHONHASHSEED`` 0 and 1,
so an output that leaks string-hash order (set or dict iteration over
strings) fails one of the two.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Prints ``{"<algorithm>/<seed>": [rounds, messages, bits, sha256]}``.
CHILD = """
import hashlib, json
from repro import RunSpec, Session
from repro.registry import iter_algorithms

names = sorted(spec.name for spec in iter_algorithms() if spec.runnable)
specs = [RunSpec(name, 16, seed=seed, engine="batched") for name in names for seed in (0, 1)]
specs.append(RunSpec("coloring", 256, seed=0, engine="batched"))
with Session() as session:
    reports = session.run_many(specs, jobs=1)
print(json.dumps({
    f"{r.spec.algorithm}/{'' if r.spec.n == 16 else f'n{r.spec.n}/'}{r.spec.seed}": [
        r.rounds, r.messages, r.bits,
        hashlib.sha256(r.to_json_line().encode("utf-8")).hexdigest(),
    ]
    for r in reports
}, sort_keys=True))
"""

#: ``"<algorithm>/<seed>"`` (n = 16) or ``"<algorithm>/n<n>/<seed>"``:
#: ``(rounds, messages, bits, sha256 of the JSONL line)``
PINS = {
    "bfs/0": (1030, 2316, 15756, "a243789baaf46fa48e416f90838ee43b796ba763205a1beec27c06a48055b2d0"),
    "bfs/1": (1025, 2317, 15888, "a28b4d51e3e312db4a766307b75733ef1cc675b3a680f7b087c8d90b9ef7a9a3"),
    "broadcast_trees/0": (732, 1937, 11863, "b6e241e2e400a825513ef85cf64992f077b67e9cf63be711e91336ab68fddbcb"),
    "broadcast_trees/1": (730, 1926, 11794, "4db0e44e01475dd01c52eb228e8bf1092d813e29d2695dfbd1f8914ecf319216"),
    "coloring/0": (869, 2192, 15271, "bb7af2ea9c221edd4dcefd0680094addaf8e0ca9080c1c227f199409a2e6c88c"),
    "coloring/1": (921, 2204, 15190, "f0fadc480b7ef28e8a39eabac93441a9529adc8ee9c76e390dc24850aa515393"),
    "coloring/n256/0": (2338, 83267, 1452056, "6b75f298c98fb7100be4e15dd572759c2e75bfa3918949640431cbb4186f523f"),
    "components/0": (11148, 17817, 268096, "d4bffe2fc46830174bfab3ef07d75cfb09c17d615ee5c9e829d088e11a7657af"),
    "components/1": (3956, 8801, 117795, "743a891ae6b59c43176b36404f628998861ec00032b9e54e139513ee5a26fe25"),
    "identification/0": (139, 1658, 15220, "968c4cc5fed469714fed35c01966b5ce0a269bad96b82997f6915089809b0ec8"),
    "identification/1": (138, 1657, 14865, "3e9414f4f23cb0e79702ae7938a65c252dd841f657c8a5e9205bca5280909751"),
    "matching/0": (1050, 2560, 20763, "a52fe7ddc7611f18d5139fdd00d23dd1ee75a886bfbce3671ce07994921a4fff"),
    "matching/1": (1045, 2546, 20408, "de35deaa776f8176fdb9b113fb7643418c8d1aa99aac50710dab51e1a912b054"),
    "mis/0": (1006, 2337, 19051, "3232302c75f6fecdb0c05529299e717105f6dba73750c928885b466b461765c2"),
    "mis/1": (1007, 2365, 19553, "d0546d3317503e821338688fb8250903834514621924942385693e475e371f3c"),
    "mst/0": (26127, 41284, 581331, "1798140fcf23eaf7248fd5774e2ca99b18b4d6ed6c55079aa932f280605b48cd"),
    "mst/1": (7441, 14237, 196387, "bb936ac23806468f92a6274edeb8d90af1afe1d2ed4b458b60af681cc5732fbf"),
    "orientation/0": (695, 1781, 9926, "ca36dcbb53de97d7b39d10e37ff5de5852b24dfd7f0e3dd84c9d09b51caf0cff"),
    "orientation/1": (695, 1781, 9972, "442c4771a8d921379d042959e348d40858f97095387ec898e088df9e69f7ebd2"),
}


def _run_child(hashseed: str) -> dict:
    src = str(Path(repro.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONHASHSEED=hashseed,
        PYTHONPATH=src if not path else src + os.pathsep + path,
    )
    out = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


# The specs pin their engine and run in their own interpreter, so an
# engine replay of the suite would only repeat this test verbatim.
@pytest.mark.engine("reference")
@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_canonical_output_pinned(hashseed):
    got = _run_child(hashseed)
    assert sorted(got) == sorted(PINS), "runnable algorithms changed: pin the new set"
    for key, pin in PINS.items():
        assert tuple(got[key][:3]) == pin[:3], f"{key}: (rounds, messages, bits) moved"
        assert got[key][3] == pin[3], f"{key}: canonical JSONL bytes moved"
