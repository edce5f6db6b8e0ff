"""Command-line interface: classify a reduction, verify its intersection
condition, count polytope faces, and survey primes in batch."""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from .builder import K_INF, StarParams, reduced_generators
from .cgroup import CHECK_NAMES, verify_cgroup
from .classify import OrderMismatchError, classify_rank4, table3_lookup
from .field import Q_LIMIT
from .matgroup import DEFAULT_CAP, OverCapError, bsgs_group, enumerate_group
from .polytope import polytope_report
from .ring import (
    CompositeError,
    ParseError,
    PrimeClass,
    UnitError,
    classify_prime,
    parse_golden,
    primes_up_to_norm,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_INPUT = 3
EXIT_OVERCAP = 4

MIN_SURVEY_NORM = 4
MAX_SURVEY_NORM = 200


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 2."""


class InputError(Exception):
    """A prime argument that is not a prime; maps to exit code 3."""


def _parse_k(text: str, extra: tuple[str, ...] = ()):
    if text in ("3", "4", "5", "6"):
        return int(text)
    if text in extra:
        return K_INF if text == "inf" else text
    allowed = ", ".join(("3", "4", "5", "6") + extra)
    raise UsageError(f"--k must be one of {allowed}; got {text!r}")


def _cap(args) -> int:
    """--cap, else STARCOX_CAP, else the default; a positive integer."""
    cap = args.cap
    if cap is None:
        env = os.environ.get("STARCOX_CAP")
        if not env:
            return DEFAULT_CAP
        try:
            cap = int(env)
        except ValueError:
            raise UsageError(f"STARCOX_CAP must be an integer; got {env!r}") from None
    if cap < 1:
        raise UsageError(f"the cap must be positive; got {cap}")
    return cap


def _prime(text: str):
    z = parse_golden(text)
    if not z:
        raise InputError("0 is neither a unit nor a prime")
    if abs(z.norm()) >= Q_LIMIT:
        raise InputError(f"|N({z})| = {abs(z.norm())} is too large: fields need q < 2^30")
    return classify_prime(z)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="starcox",
        description="Reductions of the rank-4 star Coxeter groups [5,3;k] modulo "
        "primes of the golden ring: classification, C-group verification, "
        "polytope counts, and batch surveys.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("classify", help="orthogonal type and predicted order")
    c.add_argument("--k", required=True)
    c.add_argument("--prime", required=True)
    c.add_argument("--scale", type=int, choices=(1, 2), default=1)
    c.add_argument("--format", choices=("text", "json"), default="text")

    v = sub.add_parser("verify", help="intersection-condition verification")
    v.add_argument("--k", required=True)
    v.add_argument("--prime", required=True)
    v.add_argument("--cap", type=int, default=None)
    v.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("polytope", help="face counts and incidence of one ringing")
    p.add_argument("--k", required=True)
    p.add_argument("--prime", required=True)
    p.add_argument("--ring", type=int, choices=(0, 2), required=True)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="json")

    s = sub.add_parser("survey", help="one JSON-lines row per (k, prime)")
    s.add_argument("--k", default="all")
    s.add_argument("--max-norm", type=int, default=61)
    s.add_argument("--out", default=None)
    s.add_argument("--cap", type=int, default=None)
    return ap


def cmd_classify(args) -> int:
    k = _parse_k(args.k)
    p = _prime(args.prime)
    params = StarParams(k, p, args.scale)
    c = classify_rank4(params)
    smooth = reduced_generators(params)[2].smooth
    if args.format == "json":
        print(json.dumps({
            "k": k,
            "prime": args.prime,
            "class": p.klass.value,
            "q": p.q,
            "epsilon": c.epsilon,
            "delta": c.delta,
            "smooth": smooth,
            "classification": c.display,
            "order": c.predicted_order,
        }))
        return EXIT_OK
    print(f"prime {p.value}  class {p.klass.value}  q {p.q}")
    print(f"epsilon {c.epsilon}  delta {c.delta}  smooth {str(smooth).lower()}")
    print(f"{c.display}, order {c.predicted_order}")
    return EXIT_OK


def cmd_verify(args) -> int:
    k = _parse_k(args.k, extra=("inf",))
    p = _prime(args.prime)
    try:
        params = StarParams(k, p)
    except ValueError as e:
        raise UsageError(str(e)) from e
    rep = verify_cgroup(params, cap=_cap(args))
    if args.format == "json":
        out = {
            "k": "inf" if k == K_INF else k,
            "prime": args.prime,
            "class": p.klass.value,
            "q": p.q,
            "rank3": list(rep.rank3_checks),
            "rank4": list(rep.rank4_checks),
            "orders": rep.subgroup_orders,
            "cgroup": rep.is_cgroup,
        }
        if rep.witness is not None:
            out["witness"] = rep.witness.tolist()
        if rep.witness_note:
            out["witnessNote"] = rep.witness_note
        print(json.dumps(out))
    else:
        print(f"prime {p.value}  class {p.klass.value}  q {p.q}")
        for name, ok in zip(CHECK_NAMES, rep.rank3_checks + rep.rank4_checks):
            print(f"{name} {str(ok).lower()}")
        if rep.subgroup_orders:
            print("orders " + " ".join(f"{n}={v}" for n, v in sorted(rep.subgroup_orders.items())))
        if rep.witness is not None:
            print("witness " + " / ".join(" ".join(map(str, row)) for row in rep.witness.tolist()))
        if rep.witness_note:
            print(f"witness: {rep.witness_note}")
        print(f"cgroup {str(rep.is_cgroup).lower()}")
    return EXIT_OK if rep.is_cgroup else EXIT_VERIFY


def cmd_polytope(args) -> int:
    k = _parse_k(args.k)
    p = _prime(args.prime)
    params, cap = StarParams(k, p), _cap(args)
    stats, inc = polytope_report(params, args.ring, cap=cap)
    if args.format == "json":
        print(json.dumps({**stats.to_json(), **inc.to_json()}))
    else:
        print(stats.to_text())
        print(inc.to_text())
    return EXIT_OK


def _survey_row(k: int, p, cap: int) -> tuple[dict, dict[str, int]]:
    """One survey row and its fail counts, each 0 or 1."""
    params = StarParams(k, p)
    c = classify_rank4(params)
    disagree = False
    if p.klass is not PrimeClass.EVEN:
        t = table3_lookup(params)
        disagree = (t.family, t.label, t.predicted_order) != (c.family, c.label, c.predicted_order)
    ctx, gens, rep = reduced_generators(params)
    verified: int | str
    if c.predicted_order <= cap:
        n = enumerate_group(ctx, gens, cap=cap).order
        verified = n
    else:
        n = bsgs_group(ctx, gens, cap=cap).order
        verified = "bsgs"
    cgroup = verify_cgroup(params, cap=cap).is_cgroup
    row = {
        "k": k,
        "prime": str(p.value),
        "class": p.klass.value,
        "q": p.q,
        "classification": c.display,
        "order": c.predicted_order,
        "verified": verified,
        "cgroup": cgroup,
        "smooth": rep.smooth,
    }
    fails = {
        "cgroupFailures": int(not cgroup),
        "orderMismatches": int(n != c.predicted_order),
        "pathDisagreements": int(disagree),
    }
    return row, fails


def cmd_survey(args) -> int:
    k = _parse_k(args.k, extra=("all",))
    ks = [3, 4, 5, 6] if k == "all" else [k]
    if not MIN_SURVEY_NORM <= args.max_norm <= MAX_SURVEY_NORM:
        raise UsageError(f"--max-norm must lie in {MIN_SURVEY_NORM}..{MAX_SURVEY_NORM}")
    cap = _cap(args)
    fails = {"cgroupFailures": 0, "orderMismatches": 0, "pathDisagreements": 0}
    try:
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
            # each row is written and flushed as soon as it is made, so an
            # interrupted survey keeps every finished row
            def emit(row: dict) -> None:
                fh.write(json.dumps(row) + "\n")
                fh.flush()

            rows = 0
            for kk in ks:
                for p in primes_up_to_norm(args.max_norm):
                    row, row_fails = _survey_row(kk, p, cap)
                    emit(row)
                    rows += 1
                    for name, n in row_fails.items():
                        fails[name] += n
            emit({"summary": {"rows": rows, **fails}})
    except OSError as e:
        # rows are pure computation, so an OSError comes from the output file
        if not args.out:
            raise
        raise UsageError(f"cannot write --out {args.out}: {e.strerror or e}") from None
    return EXIT_OK if not any(fails.values()) else EXIT_VERIFY


def _join_prime_flag(argv: list[str]) -> list[str]:
    """Fold `--prime <value>` into one token so negative values parse."""
    out, i = [], 0
    while i < len(argv):
        if argv[i] == "--prime" and i + 1 < len(argv):
            out.append(f"--prime={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_join_prime_flag(list(argv)))
    handler = {
        "classify": cmd_classify,
        "verify": cmd_verify,
        "polytope": cmd_polytope,
        "survey": cmd_survey,
    }[args.cmd]
    try:
        code = handler(args)
        sys.stdout.flush()  # buffered output meets a closed pipe or a full device here
        return code
    except OSError as e:
        # stdout failed (a reader that closed it early, a full device); what
        # is still buffered goes to devnull, so the interpreter's final flush
        # cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        why = "the reader closed it" if isinstance(e, BrokenPipeError) else e.strerror or e
        print(f"error: cannot write the output: {why}", file=sys.stderr)
        return EXIT_PARSE
    except (UsageError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (UnitError, CompositeError, InputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (OverCapError, MemoryError) as e:
        # a MemoryError: the work the cap admits did not fit in memory
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_OVERCAP
    except OrderMismatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
