"""Golden CLI bytes: SHA-256 digests of the stdout of fixed commands.

A refactor that claims to keep behaviour must keep these bytes.  The
digests and exit codes of the first ten rows were recorded from the code as
it stood before the thread fan-out (``workers``) was removed from the
library, so they also show that the serial-only path prints what the old
default path printed.  The ``--workers 3`` row shares the digest of the row
above it: the flag is accepted and ignored.  The ``tof`` rows and the
``MIXED`` reduce row pin the partition layer on inputs where ``t_of`` is
not trivial; they were recorded before partitions got a trusted
constructor.  A deliberate change of output re-records the digests and says
so in CHANGES.md.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from thompsonf import MarkedSet
from thompsonf.cli import main
from thompsonf.folner import family_to_lines

GOLDEN = [
    ("ball 5 --full --defect", 0,
     "2f1e3d6fe20d22dadc33d794c6ea30601ebcb31e076263c61555a61d9961061f"),
    ("ball 5 --full --defect --workers 3", 0,
     "2f1e3d6fe20d22dadc33d794c6ea30601ebcb31e076263c61555a61d9961061f"),
    ("verify --seed 1 --cases 30", 0,
     "456e4a2613ee41dedee0cf3218955f45cd4a795ca44a277d200146c0cdbddab9"),
    ("verify --seed 2 --cases 20 --corrupt", 1,
     "900ab6842a698bbf462450baaeb33c27ff30b7c53e3dddd8bf68cbfa6d5305dd"),
    ("reduce --epsilon 1/8 --input FAMILY", 1,
     "a9b17e2e8cbf0b9c4e940a0c8a6c119cf62d82901060d07bc2496228e170d4aa"),
    ("defect --input FAMILY", 0,
     "5e8590a87b936ecce17e3344b025d1b757d70eef7152c4df5d002beeb4b47c9d"),
    ("zfamily --count 20", 0,
     "3ba5771c9ace9e31c5e35e963ea0019f42b516444ba2430313ae5606981079f6"),
    ("compose x0^40 x1^-7", 0,
     "c45e536d1bfdaa7d5f1efd487ad2a14cf35734d29cbe17b39fe1021e0e686db5"),
    ("eval x1 1/3", 0,
     "aa0a427ed6f3fca489c7e88693913ba83b0ffc8fdcfb0217d2522fa080036113"),
    ("tower 5", 0,
     "1d2bf1d5e6adf6c947e3e5d88c5401574a3b077ea6069ac37ac4f5b234dd0f73"),
    ("tof --input THIRDS", 0,
     "7d51be3054c187edf466ffdea7abf27e85033990aac31beb126ea1ddf676fa78"),
    ("tof --input DEEP", 0,
     "d022cae74db434fb8e936ccdd9e03dea9d0292252537916102e29b78250b744a"),
    ("reduce --epsilon 1/8 --input MIXED", 1,
     "499ae2364e5dcc2c10ad9ca4690d4cf9a669dc536ff2410195cc2958cdd46ec2"),
]


def grid_family() -> list[str]:
    """The uniform 1/16 and 1/32 grids as family lines (mesh 1/16)."""
    grids = [MarkedSet(Fraction(k, n) for k in range(n + 1)) for n in (16, 32)]
    return family_to_lines(grids)


def mixed_family() -> list[str]:
    """Grids with non-dyadic and 2^-40-deep points added (mesh 1/16)."""
    deep = Fraction(1, 2**40)
    extras = [
        (16, [Fraction(1, 3), Fraction(2, 7), deep, 3 * deep / 2]),
        (16, [Fraction(5, 7), Fraction(2, 3), 1 - deep]),
        (32, [Fraction(1, 3), 7 * deep, Fraction(11, 13)]
         + [Fraction(1, 2**k) for k in range(6, 41)]),
    ]
    members = [
        MarkedSet([Fraction(k, n) for k in range(n + 1)] + points) for n, points in extras
    ]
    return family_to_lines(members)


# placeholder argument -> lines of the input file that replaces it
INPUTS = {
    "FAMILY": grid_family,
    "MIXED": mixed_family,
    "THIRDS": lambda: [json.dumps(["0", "1/3", "2/5", "1/2", "3/4", "1"])],
    # 1/2^k for every k <= 40 makes t_of split all the way down to 2^-40
    "DEEP": lambda: [
        json.dumps(
            ["0"] + [f"1/2^{k}" for k in range(1, 41)]
            + ["3/2^40", "5/2^33", "11/2^35", "3/4", "1099511627775/2^40", "1"]
        )
    ],
}


def run_golden(command: str, tmp_path, capsys) -> tuple[int, str]:
    """Exit code and stdout SHA-256 of one golden command."""
    argv = []
    for arg in command.split():
        if arg in INPUTS:
            path = tmp_path / f"{arg.lower()}.json"
            path.write_text("\n".join(INPUTS[arg]()) + "\n", encoding="ascii")
            arg = str(path)
        argv.append(arg)
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("ascii")).hexdigest()


@pytest.mark.parametrize("command,exit_code,digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_golden_stdout(command, exit_code, digest, tmp_path, capsys):
    assert run_golden(command, tmp_path, capsys) == (exit_code, digest)
