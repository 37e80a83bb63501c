"""Seeded inputs, the operations each workload times, and their output checks.

The generators here are the benchmark's own: they never import the
package's random-input helpers, so a change to ``verify.py`` cannot change
what a workload runs.  Inputs depend only on the workload and the seed.

Reduce families hold 1 to 50 marked sets.  Family sizes follow a
golden-ratio sequence with a seeded start, so every prefix of the pool,
which is what a timed run gets through, spreads evenly over the sizes:
the median and tail of the op times do not depend on the seed, only the
points do.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("reduce-dyadic", "reduce-rational", "ball-defect", "verify")
DEFAULT_SEED = 1

MAX_FAMILY = 50
GOLDEN = (5**0.5 - 1) / 2
REDUCE_POOL = 300  # six size cycles; a run that exhausts the pool starts again
REDUCE_EPSILON = "1/8"
GRID_16 = [Fraction(k, 16) for k in range(17)]
MAX_EXTRA_POINTS = 16
RATIONAL_ODD_FACTORS = (3, 5, 7, 9, 11)
RATIONAL_MAX_EXPONENT = 40

BALL_RADIUS = 6
BALL_SIZES = (1, 5, 17, 53, 161, 475, 1381, 3957)  # |ball(r)| for r = 0..7
BALL_CONSTANT_C = Fraction(2)

VERIFY_POOL = 40
VERIFY_CASES = 100

# ops a traced run executes, from the start of the pool
TRACE_OPS = {"reduce-dyadic": 6, "reduce-rational": 6, "ball-defect": 1, "verify": 1}

EXIT_OK, EXIT_FAIL = 0, 1


def _token(x: Fraction) -> str:
    """Input spelling of a coordinate: ``p/2^q`` for dyadics, else ``p/q``."""
    if x.denominator == 1:
        return str(x.numerator)
    q = x.denominator.bit_length() - 1
    if x.denominator == 1 << q:
        return f"{x.numerator}/2^{q}"
    return f"{x.numerator}/{x.denominator}"


def _dyadic(rng: random.Random, max_exponent: int) -> Fraction:
    q = rng.randint(0, max_exponent)
    return Fraction(rng.randint(0, 2**q), 2**q)


def dyadic_extra(rng: random.Random) -> Fraction:
    """A dyadic p/2^q with q <= 10."""
    return _dyadic(rng, 10)


def rational_extra(rng: random.Random) -> Fraction:
    """A non-dyadic rational (odd factor 3..11 times 2^k) or a deep dyadic."""
    if rng.random() < 0.5:
        d = rng.choice(RATIONAL_ODD_FACTORS) << rng.randint(0, 8)
        return Fraction(rng.randint(1, d - 1), d)
    return _dyadic(rng, RATIONAL_MAX_EXPONENT)


EXTRA_POINT = {"reduce-dyadic": dyadic_extra, "reduce-rational": rational_extra}


def marked_set(rng: random.Random, extra) -> list[Fraction]:
    """The 1/16 grid plus up to 16 extra points; its mesh is at most 1/16."""
    return GRID_16 + [extra(rng) for _ in range(rng.randint(0, MAX_EXTRA_POINTS))]


def family_sizes(rng: random.Random, count: int) -> list[int]:
    """Sizes 1..50 along a golden-ratio sequence from a seeded start."""
    start = rng.random()
    return [1 + int(MAX_FAMILY * ((start + i * GOLDEN) % 1.0)) for i in range(count)]


def derived_seed(seed: int, index: int) -> int:
    return int.from_bytes(hashlib.sha256(f"{seed}:{index}".encode()).digest()[:4], "big")


def write_inputs(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write every input file of a run and return the op list.

    Each op is a JSON-friendly dict with a ``key`` naming it in the digest
    table and the ``items`` it processes.
    """
    if workload in EXTRA_POINT:
        rng = random.Random(f"{workload}:{seed}")
        extra = EXTRA_POINT[workload]
        ops = []
        for i, size in enumerate(family_sizes(rng, REDUCE_POOL)):
            members = [marked_set(rng, extra) for _ in range(size)]
            path = workdir / f"family-{i:03d}.jsonl"
            path.write_text(
                "".join(json.dumps([_token(x) for x in m]) + "\n" for m in members),
                encoding="ascii",
            )
            distinct = len({tuple(sorted(set(m))) for m in members})
            ops.append(
                {
                    "key": f"{i:03d}",
                    "input": str(path),
                    "output": str(workdir / f"out-{i:03d}.json"),
                    "items": distinct,
                }
            )
        return ops
    if workload == "ball-defect":
        return [{"key": f"ball{BALL_RADIUS}", "items": BALL_SIZES[BALL_RADIUS]}]
    if workload == "verify":
        return [
            {
                "key": str(s),
                "seed": s,
                "output": str(workdir / f"verify-{i:03d}.json"),
                "items": VERIFY_CASES,
            }
            for i, s in enumerate(derived_seed(seed, i) for i in range(VERIFY_POOL))
        ]
    raise ValueError(f"unknown workload {workload!r}")


# -- operations (run inside the measured process) ----------------------------


def run_op(workload: str, op: dict) -> tuple[int, bytes]:
    """Run one op through the package's public surface; return (exit code, bytes)."""
    import thompsonf
    import thompsonf.cli

    if workload == "ball-defect":
        elements = thompsonf.ball(BALL_RADIUS)
        report = thompsonf.defect_elements(elements, side="left")
        verdict = thompsonf.tower_check(len(elements), report.max_defect, BALL_CONSTANT_C)
        ordered = sorted(elements, key=lambda f: f.canonical_key)
        doc = {
            "radius": BALL_RADIUS,
            "size": len(elements),
            "elements": [f.to_json_dict() for f in ordered],
            "defect_report": report.to_json_dict(),
            "tower_check": dict(
                verdict.to_json_dict(),
                constant_c=thompsonf.format_number(BALL_CONSTANT_C),
            ),
        }
        return EXIT_OK, (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("ascii")
    if workload == "verify":
        argv = ["verify", "--seed", str(op["seed"]), "--cases", str(VERIFY_CASES)]
    else:
        argv = ["reduce", "--input", op["input"], "--epsilon", REDUCE_EPSILON]
    code = thompsonf.cli.main(argv + ["--output", op["output"]])
    path = Path(op["output"])
    data = path.read_bytes() if path.exists() else b""
    path.unlink(missing_ok=True)
    return code, data


# -- output checks -------------------------------------------------------------


def check_output(workload: str, op: dict, code: int, data: bytes, expected: str | None) -> str | None:
    """Return None for a correct output, else the reason it is wrong.

    ``expected`` is the recorded SHA-256 of the output bytes, or None when
    the run's seed has no recorded digests; the invariants are checked
    either way.
    """
    if code not in (EXIT_OK, EXIT_FAIL):
        return f"exit code {code}"
    if expected is not None and hashlib.sha256(data).hexdigest() != expected:
        return "digest mismatch"
    try:
        doc = json.loads(data)
    except ValueError:
        return "output is not JSON"
    if workload == "verify":
        return _check_verify(op, code, doc)
    if workload == "ball-defect":
        return _check_ball(code, doc)
    return _check_reduce(op, code, doc)


def _check_reduce(op: dict, code: int, doc: dict) -> str | None:
    reduction = doc["reduction"]
    if not all(reduction["identity_checks"].values()):
        return "reduction identity check failed"
    if reduction["family_size"] != op["items"]:
        return "family size differs from the distinct input sets"
    marked = Fraction(doc["marked_defect"]["max_defect"])
    measured = Fraction(doc["element_defect"]["max_defect"])
    if measured > marked * reduction["family_size"] / reduction["element_count"]:
        return "element defect exceeds the transferred bound"
    cert = doc["certificate"]
    passed = marked < Fraction(REDUCE_EPSILON)
    if cert["verdict"] != ("PASS" if passed else "FAIL"):
        return "certificate verdict disagrees with the marked defect"
    if code != (EXIT_OK if passed else EXIT_FAIL):
        return "exit code disagrees with the certificate"
    return None


def _check_ball(code: int, doc: dict) -> str | None:
    size = BALL_SIZES[BALL_RADIUS]
    if code != EXIT_OK or doc["size"] != size or len(doc["elements"]) != size:
        return f"ball({BALL_RADIUS}) does not have {size} elements"
    keys = [
        ";".join(f"{a}:{b}" for a, b in e["breaks"]).encode("ascii")
        for e in doc["elements"]
    ]
    if any(k1 >= k2 for k1, k2 in zip(keys, keys[1:])):
        return "elements are not distinct and sorted by canonical key"
    if doc["defect_report"]["family_size"] != size or doc["tower_check"]["observed_size"] != size:
        return "audit does not cover the whole ball"
    return None


def _check_verify(op: dict, code: int, doc: dict) -> str | None:
    if code != EXIT_OK or doc["all_passed"] is not True:
        return "verify did not pass"
    if doc["config"] != {"seed": op["seed"], "cases": VERIFY_CASES, "corrupt": False}:
        return "verify ran another configuration"
    return None
