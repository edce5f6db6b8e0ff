"""Command-line interface tests: output shapes, exit codes, survey format."""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starcox
from starcox import classify, cli, matgroup
from starcox.cgroup import IntersectionReport
from starcox.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------------------
# classify


def test_classify_text_golden(capsys):
    rc, out, _ = run(capsys, "classify", "--k", "6", "--prime", "-1+2t")
    assert rc == 0
    assert out.splitlines() == [
        "prime -2-1t  class ClassI  q 5",
        "epsilon -1  delta -1  smooth true",
        "O(4,5,-1), order 31200",
    ]


def test_classify_json_fields(capsys):
    rc, out, _ = run(capsys, "classify", "--k", "3", "--prime", "3+1t", "--format", "json")
    assert rc == 0
    row = json.loads(out)
    assert row["k"] == 3
    assert row["prime"] == "3+1t"
    assert row["class"] == "ClassIII"
    assert row["q"] == 11
    assert row["classification"].startswith("O1(4,11,")
    assert row["order"] in (1_742_400, 1_771_440)
    assert row["smooth"] is True


def test_classify_scale_two(capsys):
    rc, out, _ = run(capsys, "classify", "--k", "3", "--prime", "-1+2t", "--scale", "2")
    assert rc == 0
    assert out.splitlines()[-1] == "O2(4,5,-1), order 15600"


def test_classify_exceptional(capsys):
    rc, out, _ = run(capsys, "classify", "--k", "5", "--prime", "-1+2t")
    assert rc == 0
    assert out.splitlines()[-1] == "Exceptional C5^3:(C2xA5), order 15000"


def test_classify_even_prime(capsys):
    rc, out, _ = run(capsys, "classify", "--k", "4", "--prime", "2")
    assert rc == 0
    assert out.splitlines()[-1] == "Exceptional C2^4:A5, order 960"


# ---------------------------------------------------------------------------
# exit codes


def test_bad_k_exits_2(capsys):
    rc, _, err = run(capsys, "classify", "--k", "7", "--prime", "2")
    assert rc == 2
    assert "error:" in err


def test_infinite_k_rejected_where_unsupported(capsys):
    assert run(capsys, "classify", "--k", "inf", "--prime", "-1+2t")[0] == 2
    assert run(capsys, "survey", "--k", "inf")[0] == 2
    rc, _, err = run(capsys, "verify", "--k", "inf", "--prime", "3+1t")
    assert rc == 2
    assert "error:" in err


def test_parse_error_exits_2(capsys):
    rc, _, err = run(capsys, "classify", "--k", "3", "--prime", "3+t")
    assert rc == 2
    assert "error:" in err


LONG_PRIME = "1" * 4301  # one digit past Python's int conversion limit


@pytest.mark.parametrize("prime", [LONG_PRIME, f"1+{LONG_PRIME}t", f"-{LONG_PRIME}-1t"])
@pytest.mark.parametrize("cmd", ["classify", "verify"])
def test_over_long_prime_exits_2(capsys, cmd, prime):
    rc, out, err = run(capsys, cmd, "--k", "3", "--prime", prime)
    assert (rc, out) == (2, "")
    assert err.startswith("error: cannot parse ") and err.count("\n") == 1
    assert "more than 4300 digits" in err and len(err) < 200


def test_composite_and_unit_exit_3(capsys):
    assert run(capsys, "classify", "--k", "3", "--prime", "4+2t")[0] == 3
    assert run(capsys, "classify", "--k", "3", "--prime", "t")[0] == 3


def test_overcap_exits_4(capsys):
    rc, _, err = run(capsys, "verify", "--k", "3", "--prime", "3+1t", "--cap", "50")
    assert rc == 4
    assert "error:" in err


def test_memory_error_exits_4(capsys, monkeypatch):
    # a cap that memory cannot honour ends in one error line, not a traceback
    def exhaust(params, cap):
        raise MemoryError

    monkeypatch.setattr(cli, "verify_cgroup", exhaust)
    rc, out, err = run(capsys, "verify", "--k", "3", "--prime", "3+1t")
    assert rc == 4
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_chain_orbit_honors_cap(capsys):
    # q = 1009: G2's chain has orbits far larger than the cap
    rc, _, err = run(capsys, "verify", "--k", "4", "--prime", "8+37t", "--cap", "1000")
    assert rc == 4
    assert "error:" in err


@pytest.mark.parametrize(
    "prime,cap,want",
    [("-7-2t", "10000", 4), ("-7-2t", "3500", 4), ("3+1t", "1400", 0)],
    ids=["q59-g0-listed", "q59-before-g2-orbit", "q11-g2-listed"],
)
def test_g0_order_honors_cap(capsys, prime, cap, want):
    # k = 6, G0 a stabilizer chain whose order, 12 s^2, passes the cap while
    # its orbits fit it: 41,772 elements in orbits of at most 354 points at
    # q = 59, 1,452 in orbits of at most 66 at q = 11. At q = 59 G0 is the
    # side of G0 & G2 that would be listed, and the torus certificate stops
    # the run before G0, or any subgroup, is built, with the closure's
    # message, at both caps. At q = 11 the listed side is G2 (1,320
    # elements), which fits the cap, so the run answers, as polytope does
    rc, out, err = run(capsys, "verify", "--k", "6", "--prime", prime, "--cap", cap,
                       "--format", "json")
    assert rc == want
    if want:
        assert f"closure exceeds cap {cap}" in err
    else:
        report = json.loads(out)
        assert (report["orders"]["G0"], report["orders"]["G2"]) == (1452, 1320)
        assert report["cgroup"] is True
        for ring in ("0", "2"):
            argv = ("polytope", "--k", "6", "--prime", prime, "--ring", ring, "--cap", cap)
            assert run(capsys, *argv)[0] == 0


def verify_exit(capsys, k, prime, cap):
    return run(capsys, "verify", "--k", str(k), "--prime", prime, "--cap", str(cap))[0]


@pytest.mark.parametrize("prime", ["-4-1t", "-7-2t", "13", "8+37t", "1000+1t", "32005+1t"])
def test_torus_certificate_moves_no_exit_code(capsys, monkeypatch, prime):
    # k = 6 at q = 19, 59, 169, 1009, 1,000,999 and 1,024,352,029, where G0
    # is the listed side of G0 & G2, at caps about 6s and s^2 (s the
    # characteristic), and about 12 s^2 where a run stays small: verify
    # exits 4 exactly below |G0| = 12 s^2. There the torus certificate
    # stops the run before any subgroup is built, and with the certificate
    # refused the build exits 4 all the same
    s = starcox.classify_prime(starcox.parse_golden(prime)).char
    caps = {c + d for c in (6 * s, s * s, 12 * s * s) for d in (-1, 0)} | {1000, 50_000}
    for cap in sorted(c for c in caps if c <= 50_000 or s < 2_000):
        want = 4 if cap < 12 * s * s else 0
        assert verify_exit(capsys, 6, prime, cap) == want
        if 12 * s * s > cap:
            with monkeypatch.context() as mp:
                mp.setattr(classify, "_torus_certifies_g0", lambda ctx, gens: False)
                assert verify_exit(capsys, 6, prime, cap) == want


@pytest.mark.parametrize(
    "prime,cap",
    [
        ("32005+1t", matgroup.DEFAULT_CAP),
        ("8+37t", 1009**2 - 1),
        ("8+37t", 12 * 1009**2 - 1),
        ("8+37t", matgroup.DEFAULT_CAP),
    ],
)
def test_torus_certificate_stops_before_any_orbit(capsys, monkeypatch, prime, cap):
    # q = 1,024,352,029 at the default cap, where G0's first orbit of 6s
    # points is far past it, and q = 1009 at caps s^2 - 1, 12 s^2 - 1 and
    # the default, where G0's orbits (6,054 and 2,018 points) fit it, so that
    # only its order passes it: the certificate |G0| >= 12 s^2 exits 4
    # before any orbit is built, in verify and in polytope at both ringings,
    # where G0 is the vertex or Q-cell stabilizer
    def no_orbit(*args):
        raise AssertionError("an orbit was built")

    monkeypatch.setattr(matgroup, "_build_orbit", no_orbit)
    for cmd in (["verify"], ["polytope", "--ring", "0"], ["polytope", "--ring", "2"]):
        rc, _, err = run(capsys, *cmd, "--k", "6", "--prime", prime, "--cap", str(cap))
        assert rc == 4
        assert f"closure exceeds cap {cap}" in err


@pytest.mark.parametrize("cap", [23, 119])
def test_cap_below_h3_exits_4_with_one_line(capsys, cap):
    # every verify builds H3, of 120 elements, as G3 at odd q: below that
    # every run exits 4 with one error line, whichever bound (an orbit, a
    # closure, or G0's certified order) it names
    for prime in ("3", "3+1t", "-7-2t"):  # q = 9, 11, 59
        for k in (3, 4, 5, 6):
            rc, out, err = run(capsys, "verify", "--k", str(k), "--prime", prime,
                               "--cap", str(cap))
            assert (rc, out) == (4, "")
            assert len(err.splitlines()) == 1
            assert err.startswith("error: ") and err.endswith(f" exceeds cap {cap}\n")


def test_root_span_base_answers_below_the_vector_orbit(capsys):
    # k = 4 at -7-2t (q = 59): G2's chain on its root span has orbits of at
    # most 60 points, against 3,422 for a chain on standard basis vectors,
    # so caps from 120 (the closure of H3) to 3,421 answer, as the default
    # cap does
    default = run(capsys, "verify", "--k", "4", "--prime", "-7-2t", "--format", "json")
    assert default[0] == 0
    for cap in ("120", "3421"):
        rc, out, _ = run(capsys, "verify", "--k", "4", "--prime", "-7-2t", "--cap", cap,
                         "--format", "json")
        assert (rc, out) == default[:2]
    assert verify_exit(capsys, 4, "-7-2t", 119) == 4


def test_field_too_large_exits_3(capsys):
    # q = 3,037,000,579 >= 2^30: int64 products would overflow
    for cmd in ("classify", "verify"):
        rc, _, err = run(capsys, cmd, "--k", "3", "--prime", "23787+73084t")
        assert rc == 3
        assert "error:" in err


def test_env_cap_is_honored(capsys, monkeypatch):
    monkeypatch.setenv("STARCOX_CAP", "50")
    assert run(capsys, "verify", "--k", "3", "--prime", "3+1t")[0] == 4


SRC = str(Path(starcox.__file__).resolve().parent.parent)


@pytest.mark.parametrize(
    "argv,env,code",
    [
        (("verify", "--k", "3", "--prime", "2"), {"STARCOX_CAP": "abc"}, 2),
        (("verify", "--k", "3", "--prime", "2", "--cap", "0"), {}, 2),
        (("verify", "--k", "3", "--prime", "2", "--cap", "-5"), {}, 2),
        (("survey", "--max-norm", "3"), {}, 2),
        (("verify", "--k", "3", "--prime", "0"), {}, 3),
        (("polytope", "--k", "3", "--prime", "2", "--ring", "2", "--cap", "1"), {}, 4),
        (("survey", "--max-norm", "4", "--out", "/nonexistent-dir/x.jsonl"), {}, 2),
        (("survey", "--max-norm", "4", "--out", "."), {}, 2),
    ],
    ids=["env-cap-abc", "cap-0", "cap-negative", "survey-norm-3", "prime-0", "polytope-cap-1",
         "survey-out-missing-dir", "survey-out-dir"],
)
def test_bad_bounds_exit_without_traceback(argv, env, code):
    base = {k: v for k, v in os.environ.items() if k != "STARCOX_CAP"}
    proc = subprocess.run(
        [sys.executable, "-m", "starcox.cli", *argv],
        env={**base, "PYTHONPATH": SRC, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == code
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv,lines",
    [
        # the survey flushes each row, so the row after the first meets the
        # closed pipe; classify's lines are still buffered when it closes
        (("survey", "--k", "3", "--max-norm", "61"), 1),
        (("classify", "--k", "3", "--prime", "2"), 0),
    ],
    ids=["survey-after-one-row", "classify-at-once"],
)
def test_closed_stdout_exits_2_without_traceback(argv, lines):
    proc = subprocess.Popen(
        [sys.executable, "-m", "starcox.cli", *argv],
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    for _ in range(lines):
        assert json.loads(proc.stdout.readline())["k"] == 3
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert "error:" in err
    assert "Traceback" not in err
    assert "Exception ignored" not in err


_WRITE_CASES = [
    ("classify", "--k", "3", "--prime", "2"),
    ("verify", "--k", "3", "--prime", "2"),
    ("polytope", "--k", "3", "--prime", "2", "--ring", "0"),
    ("survey", "--max-norm", "4"),
]
_WRITE_IDS = ["classify", "verify", "polytope", "survey"]


class _FullStdout:
    """A stdout on a full device: every write and flush raises ENOSPC."""

    def __init__(self, fd: int):
        self.fd = fd

    def fileno(self) -> int:
        return self.fd

    def write(self, text: str) -> int:
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self) -> None:
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", _WRITE_CASES, ids=_WRITE_IDS)
def test_failed_stdout_write_exits_2(argv, tmp_path, monkeypatch):
    # main sends what is left of stdout to devnull through its descriptor,
    # here a scratch file's, so the test run's own stdout is untouched
    with open(tmp_path / "out", "w") as scratch:
        monkeypatch.setattr(sys, "stdout", _FullStdout(scratch.fileno()))
        with redirect_stderr(io.StringIO()) as err:
            rc = main(list(argv))
    assert rc == 2
    assert err.getvalue() == "error: cannot write the output: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", _WRITE_CASES, ids=_WRITE_IDS)
def test_full_device_stdout_exits_2_without_traceback(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "starcox.cli", *argv],
            env={**os.environ, "PYTHONPATH": SRC},
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write the output: No space left on device\n"


# Tokens of the real grammar, bounded so every run stays small (primes of
# norm <= 11, caps <= 2,000, survey norms <= 5), next to units, composites,
# unparsable primes (one past the int conversion limit), bad k values,
# non-positive caps and out-of-range norms.
_VALUES = {
    "--k": ["3", "4", "5", "6", "inf", "all", "7", "0", "-3", "x", ""],
    "--prime": ["2", "-1+2t", "3", "3+1t", "-1+3t", "t", "1", "-1", "4", "6", "2+2t", "0",
                "abc", "3+", "+t", LONG_PRIME],
    "--cap": ["-5", "0", "1", "50", "2000", "x"],
    "--scale": ["1", "2", "3", "x"],
    "--ring": ["0", "2", "1", "x"],
    "--format": ["text", "json", "xml"],
    "--max-norm": ["3", "4", "5", "201"],
}
# per command: the flags always given, then the flags given or not; survey's
# --max-norm is always given, since the default norm 61 makes a run slow
_FLAGS = {
    "classify": (["--k", "--prime"], ["--scale", "--format"]),
    "verify": (["--k", "--prime"], ["--cap", "--format"]),
    "polytope": (["--k", "--prime", "--ring"], ["--cap", "--format"]),
    "survey": (["--max-norm"], ["--k", "--cap"]),
}


def _command(cmd: str):
    required, optional = _FLAGS[cmd]
    opts = [st.sampled_from(_VALUES[f]).map(lambda v, f=f: [f, v]) for f in required]
    opts += [st.one_of(st.just([]), st.sampled_from(_VALUES[f]).map(lambda v, f=f: [f, v]))
             for f in optional]
    return st.tuples(st.just([cmd]), *opts).map(lambda parts: [t for part in parts for t in part])


_GRAMMAR = st.sampled_from(sorted(_FLAGS)).flatmap(_command)
# garbage never names survey, whose default norm would make a run slow
_GARBAGE = st.lists(
    st.sampled_from(["classify", "verify", "polytope", "-", "--", *_VALUES, *_VALUES["--k"],
                     *_VALUES["--prime"], *_VALUES["--cap"]]),
    max_size=7,
)
_ENV_CAP = st.sampled_from([None, "", "0", "-1", "abc", "1.5", "50", "2000"])


def _exit_code(argv: list[str], env_cap: str | None):
    """main's return code, or argparse's SystemExit code, with STARCOX_CAP
    unset (None) or set; any other exception escapes."""
    with pytest.MonkeyPatch.context() as mp:
        if env_cap is None:
            mp.delenv("STARCOX_CAP", raising=False)
        else:
            mp.setenv("STARCOX_CAP", env_cap)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                return main(argv)
            except SystemExit as e:
                return e.code


@settings(max_examples=300, deadline=None)
@given(argv=_GRAMMAR, env_cap=_ENV_CAP)
def test_cli_fuzz_grammar_exits_with_a_documented_code(argv, env_cap):
    assert _exit_code(argv, env_cap) in range(5)


@settings(max_examples=200, deadline=None)
@given(argv=_GARBAGE, env_cap=_ENV_CAP)
def test_cli_fuzz_garbage_exits_with_a_documented_code(argv, env_cap):
    assert _exit_code(argv, env_cap) in range(5)


def test_missing_argument_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--k", "3"])
    assert exc.value.code == 2


def test_verify_failure_exits_1(capsys, monkeypatch):
    failing = IntersectionReport(
        (False, True, True), (True, True, True), None, "", {"G0": 24}
    )
    monkeypatch.setattr(cli, "verify_cgroup", lambda params, cap: failing)
    rc, out, _ = run(capsys, "verify", "--k", "3", "--prime", "2")
    assert rc == 1
    assert "cgroup false" in out
    assert not any(line.startswith("witness") for line in out.splitlines())
    rc, out, _ = run(capsys, "verify", "--k", "3", "--prime", "2", "--format", "json")
    assert rc == 1
    assert "witness" not in json.loads(out)


def test_verify_prints_the_witness(capsys, monkeypatch):
    witness = np.arange(16, dtype=np.int64).reshape(4, 4)
    failing = IntersectionReport(
        (True, True, True), (True, False, True), witness, "G0 meets G3 away from G03", {"G0": 24}
    )
    monkeypatch.setattr(cli, "verify_cgroup", lambda params, cap: failing)
    rc, out, _ = run(capsys, "verify", "--k", "3", "--prime", "2")
    assert rc == 1
    lines = out.splitlines()
    assert "witness 0 1 2 3 / 4 5 6 7 / 8 9 10 11 / 12 13 14 15" in lines
    assert "witness: G0 meets G3 away from G03" in lines
    rc, out, _ = run(capsys, "verify", "--k", "3", "--prime", "2", "--format", "json")
    assert rc == 1
    row = json.loads(out)
    assert row["witness"] == witness.tolist()
    assert row["witnessNote"] == "G0 meets G3 away from G03"


# ---------------------------------------------------------------------------
# verify / polytope output


def test_verify_text_and_json(capsys):
    rc, out, _ = run(capsys, "verify", "--k", "3", "--prime", "2")
    assert rc == 0
    assert "cgroup true" in out
    assert "G0=24" in out
    rc, out, _ = run(capsys, "verify", "--k", "3", "--prime", "2", "--format", "json")
    assert rc == 0
    row = json.loads(out)
    assert row["rank3"] == [True, True, True]
    assert row["rank4"] == [True, True, True]
    assert row["cgroup"] is True
    assert row["orders"]["G2"] == 60


def test_verify_infinite_mark(capsys):
    rc, out, _ = run(capsys, "verify", "--k", "inf", "--prime", "-1+2t", "--format", "json")
    assert rc == 0
    row = json.loads(out)
    assert row["k"] == "inf"
    assert row["cgroup"] is True
    assert row["orders"]["G02"] == 10


def test_polytope_json_golden(capsys):
    rc, out, _ = run(capsys, "polytope", "--k", "3", "--prime", "2", "--ring", "2")
    assert rc == 0
    assert json.loads(out) == {
        "ring": 2,
        "vertices": 16,
        "edges": 120,
        "subfacets": 160,
        "cellsP": 16,
        "cellsQ": 40,
        "orbitClass": "TwoOrbit",
        "edgesOk": True,
        "vertexProfile": [[6, 10]],
        "crossfootOk": True,
    }


def test_polytope_text_format(capsys):
    rc, out, _ = run(capsys, "polytope", "--k", "3", "--prime", "2", "--ring", "0", "--format", "text")
    assert rc == 0
    assert "orbit class" in out
    assert "incidence edges ok true, vertex profile P 4 Q 4, crossfoot ok true" in out


@pytest.mark.parametrize("ring", [0, 2])
def test_polytope_enumerates_each_face_stabilizer_once(ring, capsys, monkeypatch):
    # five face stabilizers, each built once for both reports: all closures
    # at k = 3, -1+2t, and at k = 6, -7-2t (q = 59), G0 and G2, predicted
    # past ENUMERATE_LIMIT, as chains; the output is that of face_counts and
    # incidence_report called one by one
    calls = {"enumerate_group": 0, "bsgs_group": 0}
    for name in calls:
        def counted(*args, name=name, inner=getattr(starcox.polytope, name), **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(starcox.polytope, name, counted)
    for k, prime, chains in ((3, "-1+2t", 0), (6, "-7-2t", 2)):
        params = starcox.StarParams(k, starcox.classify_prime(starcox.parse_golden(prime)))
        stats, inc = starcox.face_counts(params, ring), starcox.incidence_report(params, ring)
        calls.update(enumerate_group=0, bsgs_group=0)
        argv = ("polytope", "--k", str(k), "--prime", prime, "--ring", str(ring))
        rc, out, _ = run(capsys, *argv, "--format", "text")
        assert rc == 0
        assert out == f"{stats.to_text()}\n{inc.to_text()}\n"
        assert calls == {"enumerate_group": 5 - chains, "bsgs_group": chains}
        rc, out, _ = run(capsys, *argv, "--format", "json")
        assert rc == 0
        assert out == json.dumps({**stats.to_json(), **inc.to_json()}) + "\n"


def test_order_mismatch_exits_1(capsys, monkeypatch):
    # a contradicted order is a failed verification: one error line and
    # exit 1. polytope: a full-group order that the stabilizers do not
    # divide; verify: a rank-3 prediction one element too large
    real4, real3 = starcox.polytope.classify_rank4, starcox.classify.classify_rank3

    def plus_one(real):
        def wrong(*args):
            c = real(*args)
            return dataclasses.replace(c, predicted_order=c.predicted_order + 1)

        return wrong

    monkeypatch.setattr(starcox.polytope, "classify_rank4", plus_one(real4))
    rc, out, err = run(capsys, "polytope", "--k", "3", "--prime", "2", "--ring", "2")
    assert (rc, out) == (1, "")
    assert err == "error: vertex stabilizer order 60 does not divide 961\n"
    monkeypatch.setattr(starcox.classify, "classify_rank3", plus_one(real3))
    rc, out, err = run(capsys, "verify", "--k", "6", "--prime", "3+1t")
    assert (rc, out) == (1, "")
    assert err == "error: G0 has order 1452, not the predicted 1453\n"


def test_path_disagreement_exits_1(capsys, monkeypatch):
    # classify and polytope ask the congruence table at scale 1 and an odd
    # prime; a table that disagrees with the Legendre path makes one error
    # line naming both answers, exit 1, and no output
    real = cli.table3_lookup

    def wrong(params):
        c = real(params)
        return dataclasses.replace(c, label="O(4,5,1)", predicted_order=c.predicted_order + 1)

    monkeypatch.setattr(cli, "table3_lookup", wrong)
    want = ("error: the Legendre path gives O(4,5,-1), order 31200; "
            "the congruence table gives O(4,5,1), order 31201\n")
    for argv in (("classify", "--k", "6", "--prime", "-1+2t"),
                 ("polytope", "--k", "6", "--prime", "-1+2t", "--ring", "0")):
        assert run(capsys, *argv) == (1, "", want)
    # the table does not cover scale 2 or the even prime
    for argv in (("classify", "--k", "6", "--prime", "-1+2t", "--scale", "2"),
                 ("classify", "--k", "6", "--prime", "2"),
                 ("polytope", "--k", "6", "--prime", "2", "--ring", "0")):
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, "") and out


@pytest.mark.parametrize(
    "k,prime,cap,code,err",
    [
        # G2 predicted 2,640: a chain below that cap, a closure at it; both
        # exit 0, as when G2 was always a chain
        ("4", "3+1t", "2639", 0, ""),
        ("4", "3+1t", "2640", 0, ""),
        # no prediction at the even prime, so the 160-element G2 is a closure,
        # held to the cap by its elements as in polytope: exit 4, where a
        # chain of G2 (orbits of 20 and 8 points, never listed) exited 0, at
        # every cap from 60 (|G3|) to 159 at k = 4 and 5
        ("4", "2", "60", 4, "error: closure exceeds cap 60\n"),
        ("4", "2", "160", 0, ""),
    ],
    ids=["k4-q11-cap2639", "k4-q11-cap2640", "k4-q4-cap60", "k4-q4-cap160"],
)
def test_backend_rule_edges_keep_exit_codes(capsys, k, prime, cap, code, err):
    rc, _, got = run(capsys, "verify", "--k", k, "--prime", prime, "--cap", cap)
    assert (rc, got) == (code, err)


# ---------------------------------------------------------------------------
# survey


def test_survey_small_run(tmp_path, capsys):
    out_path = tmp_path / "rows.jsonl"
    rc, _, _ = run(capsys, "survey", "--k", "3", "--max-norm", "5", "--out", str(out_path))
    assert rc == 0
    lines = [json.loads(s) for s in out_path.read_text().splitlines()]
    assert len(lines) == 3
    rows, summary = lines[:-1], lines[-1]
    assert summary == {
        "summary": {"rows": 2, "cgroupFailures": 0, "orderMismatches": 0, "pathDisagreements": 0}
    }
    by_class = {r["class"]: r for r in rows}
    assert by_class["Even"]["order"] == 960
    assert by_class["Even"]["verified"] == 960
    assert by_class["ClassI"]["classification"] == "O1(4,5,-1)"
    assert all(r["cgroup"] and r["smooth"] for r in rows)
    assert all(r["k"] == 3 for r in rows)


def test_survey_rows_are_pinned(tmp_path, capsys):
    # the 12 rows (q = 4, 5, 9) and the summary of the survey up to norm 9,
    # as one digest; a change to any order, classification or check shows here
    out_path = tmp_path / "rows.jsonl"
    rc, _, _ = run(capsys, "survey", "--k", "all", "--max-norm", "9", "--out", str(out_path))
    assert rc == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "5f3609474284fc802b960dbf0339c945d2efc7fe2064e03303ac66b21b0b9065"
    )


def test_survey_deterministic(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    run(capsys, "survey", "--k", "4", "--max-norm", "5", "--out", str(a))
    run(capsys, "survey", "--k", "4", "--max-norm", "5", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_survey_interrupt_keeps_finished_rows(tmp_path, monkeypatch):
    out_path = tmp_path / "rows.jsonl"
    made = []
    real_row = cli._survey_row

    def row(*args):
        if len(made) == 2:
            raise KeyboardInterrupt
        made.append(real_row(*args))
        return made[-1]

    monkeypatch.setattr(cli, "_survey_row", row)
    with pytest.raises(KeyboardInterrupt):
        main(["survey", "--k", "all", "--max-norm", "5", "--out", str(out_path)])
    text = out_path.read_text()
    assert text.endswith("\n")
    assert [json.loads(s) for s in text.splitlines()] == [r for r, _ in made]


def test_survey_stdout_and_norm_bound(capsys):
    rc, out, _ = run(capsys, "survey", "--k", "5", "--max-norm", "4")
    assert rc == 0
    assert len(out.splitlines()) == 2
    assert run(capsys, "survey", "--max-norm", "201")[0] == 2
