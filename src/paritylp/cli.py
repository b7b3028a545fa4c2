"""Command-line front door: profile ingestion, dispatch, report emission.

Each command returns its report body and its table; `main` writes one JSON
report (or the aligned table with --format table) that embeds the resolved
configuration, and exits 0 only when all audits the command ran passed
within tolerance.  Each subcommand takes only the options its command reads.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

import numpy as np

from . import bounds, lp, povm, simulate
from .errors import ToolkitError
from .f2lin import (
    by_code,
    enumerate_codes,
    gaussian_binomial,
    vec_from_str,
    vec_str,
)
from .profiles import (
    AmplitudeProfile,
    BernoulliParams,
    CostFunction,
    _DECIMAL,
    _MAX_CHARS,
    _fraction,
    bernoulli_profile,
)


def _load_profile(path: str) -> AmplitudeProfile:
    with open(path) as fh:
        try:
            data = json.load(fh, parse_int=_json_int)
        except RecursionError:
            raise ToolkitError(f"profile {path!r} is nested too deeply") from None
    return AmplitudeProfile.from_json_dict(data)


def _json_int(text: str) -> int:
    """A JSON integer literal; the number reader refuses one longer than a
    number string may be, before int() reaches Python's digit limit."""
    if len(text) > _MAX_CHARS:
        _fraction(text, "JSON integer")
    return int(text)


def _cost_from_args(n: int, args) -> CostFunction:
    if args.tau is not None and args.cost != "threshold":
        raise ToolkitError("--tau is read only with --cost threshold")
    if args.cost_values is not None and args.cost != "custom":
        raise ToolkitError("--cost-values is read only with --cost custom")
    if args.cost == "threshold" and args.tau is None:
        raise ToolkitError("--cost threshold needs --tau")
    if args.cost == "custom" and args.cost_values is None:
        raise ToolkitError("--cost custom needs --cost-values")
    values = None if args.cost_values is None else args.cost_values.split(",")
    return CostFunction.from_json_dict(n, {"kind": args.cost, "tau": args.tau, "values": values})


def _render(value):
    """The JSON value written for a non-JSON scalar: a `Fraction` as its string."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _matrix_json(entries: np.ndarray, level: int, layouts: dict) -> str:
    """A matrix as json writes its rows of {"re": ., "im": .} dicts at `level`,
    from the (rows, cols, 2) tokens of its (re, im) values.  `layouts` keeps,
    per shape and level, the separators and a slot for each token to refill."""
    rows, cols, _ = entries.shape
    i0, i1, i2, i3 = ("\n" + "  " * (level + d) for d in range(4))
    if not entries.size:
        return "[" + ",".join([i1 + "[]"] * rows) + i0 + "]" if rows else "[]"
    parts = layouts.get((rows, cols, level))
    if parts is None:
        opening = "{" + i3 + '"re": '
        closing = i2 + "}"
        parts = ["," + i3 + '"im": '] * (2 * entries.size)
        parts[0::4] = [closing + "," + i2 + opening] * (rows * cols)
        parts[0::4 * cols] = [closing + i1 + "]," + i1 + "[" + i2 + opening] * rows
        parts[0] = "[" + i1 + "[" + i2 + opening
        parts.append(closing + i1 + "]" + i0 + "]")
        layouts[rows, cols, level] = parts
    parts[1::2] = entries.ravel().tolist()
    return "".join(parts)


def _tokens(arrays: list) -> list:
    """The (rows, cols, 2) json tokens of each matrix's (re, im) values.  The
    matrices' floats are deduplicated by bit pattern for one encoder call."""
    bits = [np.ascontiguousarray(m, dtype=complex).view(np.int64).reshape(*m.shape, 2)
            for m in arrays]
    patterns = np.concatenate([b.ravel() for b in bits])
    patterns.sort()
    # np.unique would import numpy.ma
    fresh = np.ones(len(patterns), dtype=bool)
    fresh[1:] = patterns[1:] != patterns[:-1]
    patterns = patterns[fresh]
    text = json.dumps(patterns.view(float).tolist())
    tokens = np.array(text[1:-1].split(", "), dtype=object)
    return [tokens[np.searchsorted(patterns, b)] for b in bits]


def dump_json(obj, fh) -> None:
    """Write `obj` to `fh` as json.dump(obj, fh, indent=2) would, with each
    `Fraction` as its string and each 2-D ndarray as its rows of
    {"re": real, "im": imag} dicts.

    The standard encoder writes `obj` with a marker string for each matrix:
    a NUL, a nonce drawn for this call and the matrix's index.  The text
    between markers is written as is; each matrix is rendered from its
    tokens (`_tokens`) at the indent of its marker's line and written at
    once, so at most one matrix is held as text.
    """
    nonce = os.urandom(16).hex()
    arrays = []

    def default(value):
        if isinstance(value, np.ndarray):
            if value.ndim != 2:
                raise TypeError(f"cannot encode a {value.ndim}-D array as a matrix")
            arrays.append(value)
            return f"\x00{nonce}{len(arrays) - 1}"
        return _render(value)

    try:
        text = json.JSONEncoder(indent=2, default=default).encode(obj)
        # each marker once and in order, and the nonce nowhere else
        markers = [f'"\\u0000{nonce}{i}"' for i in range(len(arrays))]
        starts = []
        for marker in markers:
            starts.append(text.find(marker, starts[-1] if starts else 0))
        if -1 in starts or text.count(nonce) != len(arrays):
            raise ValueError("a report string holds this call's matrix marker")
        tokens = _tokens(arrays) if arrays else []
    finally:
        # the encoder's closures hold `default`, and so this list, in a
        # reference cycle: no matrix may wait in it for the cycle collector
        arrays.clear()
    at = 0
    layouts: dict = {}
    for marker, start, entries in zip(markers, starts, tokens):
        line = text[text.rfind("\n", 0, start) + 1:start]
        fh.write(text[at:start])
        fh.write(_matrix_json(entries, (len(line) - len(line.lstrip(" "))) // 2, layouts))
        at = start + len(marker)
    fh.write(text[at:])


def _config_dict(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func" and v is not None}


def _table(rows: list[tuple], headers: tuple) -> str:
    cells = [tuple(str(c) for c in r) for r in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    def fmt(row):
        return "  ".join(str(c).ljust(w) for c, w in zip(row, widths))
    lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(r) for r in cells)
    return "\n".join(lines)


def _emit(args, report: dict, table_text: str) -> None:
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        if args.format == "table":
            fh.write(table_text)
        else:
            dump_json(report, fh)
        fh.write("\n")


def _profile_amplitudes(profile: AmplitudeProfile, args) -> AmplitudeProfile:
    if profile.amplitudes is not None:
        return profile
    if args.assume_real_amplitudes:
        return profile.with_real_amplitudes()
    raise ToolkitError(
        "this command needs complex amplitudes; add an 'amplitudes' field to "
        "the profile or pass --assume-real-amplitudes"
    )


def cmd_solve(args) -> tuple[dict, str]:
    profile = _load_profile(args.profile)
    cost = _cost_from_args(profile.n, args)
    if args.dump_model:
        with open(args.dump_model, "w") as fh:
            fh.write(lp.build_primal(profile).to_text(cost) + "\n")
            fh.write(lp.build_dual(profile, cost) + "\n")
    primal, dual, p_report = lp.solve_pair(profile, cost, args.mode)
    gap = abs(p_report.objective - dual.objective)
    tol = lp.tolerance(p_report.objective, dual.objective)
    # A binary64 gap may also be 1e-12 |rho|, as in rho_matches_lp; an exact one is 0.
    audits = {"strong_duality_gap": gap <= (tol and max(tol, 1e-12 * abs(p_report.objective)))}
    if p_report.mode == lp.FLOAT:
        # A certified solve is feasible; a binary64 one is audited row by row.
        audits["primal_feasible"] = lp.check_primal_feasible(primal, profile).feasible
    report = {
        "rho": p_report.objective,
        "sigma": dual.objective,
        "gap": float(gap),
        "primal": p_report.to_json_dict(),
        "dual_solution": {"b": dual.to_json_dict()["b"]},
        "primal_solution": primal.to_json_dict(),
        "audits": audits,
    }
    rows = [("rho", p_report.objective),
            ("sigma", dual.objective),
            ("gap", gap)]
    return report, _table(rows, ("quantity", "value"))


# The verify families that read each family option.
_FAMILY_OPTIONS = {"d": ("threshold-ball",), "gamma": ("threshold-ball",),
                   "tau": ("threshold-ball", "threshold-set"), "set": ("threshold-set",)}


def _family_dual(args, profile: AmplitudeProfile) -> tuple[lp.DualSolution, CostFunction]:
    unread = [f"--{name}" for name, readers in _FAMILY_OPTIONS.items()
              if getattr(args, name) is not None and args.family not in readers]
    if unread:
        raise ToolkitError(f"family {args.family} does not read {', '.join(unread)}")
    n = profile.n
    if args.family in bounds.AVERAGE_FAMILIES:
        return bounds.paired_dual(args.family, n), CostFunction.average(n)
    if args.family == "threshold-ball":
        if args.d is None or args.gamma is None:
            raise ToolkitError("threshold-ball needs --d and --gamma")
        sol = bounds.dual_threshold_ball(n, args.d, args.gamma, tau=args.tau)
        return sol, CostFunction.threshold(n, sol.params["tau"])
    if args.family == "threshold-set":
        if args.tau is None or not args.set:
            raise ToolkitError("threshold-set needs --tau and --set")
        members = {_parse_vec(s.strip(), n) for s in args.set.split(",")}
        sol = bounds.dual_threshold_indicator(members, args.tau, n)
        return sol, CostFunction.threshold(n, args.tau)
    raise ToolkitError(f"unknown family {args.family!r}")


def cmd_verify(args) -> tuple[dict, str]:
    profile = _load_profile(args.profile)
    # Before the family: its audit alone walks every code of n.
    lp.check_budget(profile.n)
    dual, cost = _family_dual(args, profile)
    dual.objective = dual.evaluate(profile)
    audit = dual.audit or lp.check_dual_feasible(dual, cost)
    _, lp_report = lp.solve_primal(profile, cost, args.mode)
    gap = dual.objective - lp_report.objective
    tol = lp.tolerance(dual.objective, lp_report.objective)
    audits = {"dual_feasible": audit.feasible, "weak_duality": gap >= -tol}
    report = {
        "family": args.family,
        "certificate": dual.to_json_dict(),
        "objective": dual.objective,
        "lp_optimum": lp_report.objective,
        "gap": float(gap),
        "feasibility": audit.to_json_dict(),
        "audits": audits,
    }
    rows = [("family objective", dual.objective),
            ("lp optimum", lp_report.objective),
            ("gap", float(gap)),
            ("feasible", audit.feasible)]
    return report, _table(rows, ("quantity", "value"))


def cmd_primal_candidate(args) -> tuple[dict, str]:
    profile = _load_profile(args.profile)
    cost = CostFunction.average(profile.n)
    candidate = bounds.primal_candidate(args.family, profile)
    paired = bounds.paired_dual(args.family, profile.n)
    paired.objective = paired.evaluate(profile)
    audits = {}
    slackness = None
    if candidate.nonnegative:
        sol = candidate.to_solution(profile)
        slackness = lp.complementary_slackness(sol, paired, profile, cost)
        audits["certified_when_nonnegative"] = slackness.certified
    report = {
        "candidate": candidate.to_json_dict(),
        "paired_dual_objective": paired.objective,
        "slackness": slackness.to_json_dict() if slackness else None,
        "audits": audits,
    }
    rows = [("family", args.family),
            ("nonnegative", candidate.nonnegative),
            ("objective", candidate.objective),
            ("paired dual objective", paired.objective)]
    return report, _table(rows, ("quantity", "value"))


def cmd_povm(args) -> tuple[dict, str]:
    profile = _profile_amplitudes(_load_profile(args.profile), args)
    cost = _cost_from_args(profile.n, args)
    primal, p_report = lp.solve_primal(profile, cost, args.mode)
    povm_set = povm.build_from_primal(primal, profile)
    verification = povm.verify_povm(povm_set)
    fourier = povm.fourier_diag_check(povm_set)
    rho = povm.rho_eval(povm_set, cost)
    audits = {
        "povm_valid": verification.ok,
        # Within 1e-8, or one part in 10^12 where rho passes 10^4.
        "rho_matches_lp": math.isclose(rho, float(p_report.objective), rel_tol=1e-12,
                                       abs_tol=1e-8),
    }
    report = {
        "rho_lp": p_report.objective,
        "rho_povm": rho,
        "verification": verification.to_json_dict(),
        "fourier_diag": fourier.to_json_dict(),
        "audits": audits,
        "povm": povm_set.to_json_dict(),
    }
    rows = [("rho (lp)", p_report.objective),
            ("rho (povm)", rho),
            ("valid", verification.ok)]
    return report, _table(rows, ("quantity", "value"))


def _parse_vec(text: str, n: int) -> int:
    if len(text) != n:
        raise ToolkitError(
            f"vector {text!r} has {len(text)} coordinates, profile has n={n}"
        )
    return vec_from_str(text)


def cmd_simulate(args) -> tuple[dict, str]:
    profile = _load_profile(args.profile)
    cost = _cost_from_args(profile.n, args)
    x = _parse_vec(args.x, profile.n)
    primal, _ = lp.solve_primal(profile, cost, args.mode)
    dist = simulate.exact_distribution(primal, profile, x)
    records = simulate.sample(primal, profile, x, args.shots, args.seed)
    sv = simulate.statevector_check(primal, profile, x, dist) if profile.full_support else None
    audits = {"histogram_in_support": all(dist.get((r.code, r.y), 0) > 0 for r in records)}
    if sv is not None:
        audits["statevector_consistent"] = sv.ok
    report = {
        "x": args.x,
        "exact_distribution": {
            f"{code.label()},y={vec_str(y, code.k)}": p
            for (code, y), p in sorted(dist.items(), key=by_code)
        },
        "histogram": [r.to_json_dict() for r in records],
        "statevector": sv.to_json_dict() if sv else None,
        "audits": audits,
    }
    rows = [(r.code.label(), vec_str(r.y, r.code.k), r.count, r.frequency)
            for r in records]
    return report, _table(rows, ("H", "y", "count", "frequency"))


def cmd_slpn(args) -> tuple[dict, str]:
    if (args.d is None) != (args.gamma is None):
        raise ToolkitError("slpn reads --d and --gamma together")
    # Before the profile: it holds 2^n weights.
    lp.check_budget(args.n)
    profile = bernoulli_profile(args.n, args.t)
    params = BernoulliParams(args.t)
    # A Bernoulli profile is binary64, so both solves of its one model run in float.
    model = lp.build_primal(profile)
    p_report = lp.solve(model, CostFunction.average(args.n))
    rho_av = float(p_report.objective)
    hamming_bound = 2 * args.n * params.t_perp
    threshold_part = None
    if args.d is not None:
        ball_sol = bounds.dual_threshold_ball(args.n, args.d, args.gamma)
        tau = ball_sol.params["tau"]
        t_report = lp.solve(model, CostFunction.threshold(args.n, tau))
        threshold_part = {
            "tau": tau,
            "rho_threshold": float(t_report.objective),
            "ball_bound": float(ball_sol.evaluate(profile)),
        }
    audits = {"hamming_bound_holds": rho_av <= hamming_bound + lp.FLOAT_FEAS_TOL}
    report = {
        "lp_mode": p_report.mode,
        "t_perp": params.t_perp,
        "rho_average": rho_av,
        "hamming_bound": hamming_bound,
        "threshold": threshold_part,
        "interpretation": (
            f"an unambiguous strategy certifies at most {hamming_bound:.6f} "
            f"parities on average ({args.n} bits at dual rate {params.t_perp:.6f}); "
            "recovering k parities therefore needs dual weight about k/2, the "
            "classical Gaussian-elimination (Prange) barrier, so this route "
            "cannot beat it"
        ),
        "audits": audits,
    }
    rows = [("t_perp", params.t_perp),
            ("rho (average)", rho_av),
            ("hamming bound 2*n*t_perp", hamming_bound)]
    return report, _table(rows, ("quantity", "value"))


def cmd_threshold(args) -> tuple[dict, str]:
    profile = _load_profile(args.profile)
    cert = bounds.threshold_zero_certificate(profile, args.tau)
    cost = CostFunction.threshold(profile.n, args.tau)
    _, report_lp = lp.solve_primal(profile, cost, args.mode)
    lp_value = report_lp.objective
    tol = lp.tolerance(lp_value)
    audits = {"certificate_matches_lp": cert.rho_is_zero == (abs(lp_value) <= tol)}
    report = {
        "certificate": cert.to_json_dict(),
        "lp_value": lp_value,
        "audits": audits,
    }
    rows = [("tau", args.tau),
            ("rho is zero", cert.rho_is_zero),
            ("lp value", lp_value)]
    return report, _table(rows, ("quantity", "value"))


def cmd_enumerate(args) -> tuple[dict, str]:
    # Lazy, so that enumerate_codes refuses an n above its cap before n + 1 ranks exist.
    ks = [args.k] if args.k is not None else range(args.n + 1)
    codes_out, audits = [], {}
    for k in ks:
        codes = enumerate_codes(args.n, k)
        audits[f"count_k{k}_matches_gaussian_binomial"] = (
            len(codes) == gaussian_binomial(args.n, k)
        )
        for code in codes:
            codes_out.append({
                "k": k,
                "H": code.H.to_strings(),
                "G": code.G.to_strings(),
                "coset_leaders": [
                    {"syndrome": vec_str(s, args.n - k),
                     "min": vec_str(lightest, args.n),
                     "max": vec_str(heaviest, args.n)}
                    for s, (lightest, heaviest) in enumerate(code.leaders.T.tolist())
                ],
            })
    report = {"codes": codes_out, "audits": audits}
    rows = [(c["k"], ";".join(c["H"]), ";".join(c["G"]) or "-") for c in codes_out]
    return report, _table(rows, ("k", "H", "G"))


def _number_option(grammar: str, read, what: str, ok=lambda value: True):
    """An argparse type: the value `read` gives for a string in `grammar`, no
    longer than a number string may be, when `ok` holds for it."""
    pattern = re.compile(grammar)

    def parse(text: str):
        value = read(text) if len(text) <= _MAX_CHARS and pattern.fullmatch(text) else None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"need {what}, not {text!r}")
        return value

    return parse


# CLI numbers are ASCII, as number strings are: an integer option takes a
# sign and digits (a count, --n or --seed, only when >= 0, and --shots only
# from 1 to below the sampler's int64 limit), a float option a
# decimal of the number grammar, or inf or nan, which each command that
# reads one refuses itself.
_FLOAT = rf"{_DECIMAL}|[+-]?(?:inf|nan)"
_int_option = _number_option(r"[+-]?[0-9]+", int, "an integer")
_count_option = _number_option(r"[+-]?[0-9]+", int, "an integer >= 0", lambda value: value >= 0)
_shots_option = _number_option(r"[+-]?[0-9]+", int, "1 <= shots < 2**63",
                               lambda value: 1 <= value < simulate.SHOTS_LIMIT)
_float_option = _number_option(_FLOAT, float, "a decimal number, inf or nan")


def _add_common(p: argparse.ArgumentParser, *, profile: bool = True,
                mode: bool = False) -> None:
    """--format and --out, and whichever of --profile and --mode the command
    reads, in the order its report's config lists them."""
    if profile:
        p.add_argument("--profile", required=True, help="profile JSON path")
    if mode:
        p.add_argument("--mode", choices=["exact", "float"], default="exact")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--out", help="write the report here instead of stdout")


def _add_cost(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cost", choices=["average", "threshold", "custom"],
                   default="average")
    p.add_argument("--tau", type=_int_option)
    p.add_argument("--cost-values", dest="cost_values")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="paritylp",
        description="Exact toolkit for fine-grained unambiguous parity "
                    "measurements on shift-symmetric state families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the primal and dual programs")
    _add_common(p, mode=True)
    _add_cost(p)
    p.add_argument("--dump-model", dest="dump_model",
                   help="write the plain-text model dump here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="emit and audit a dual certificate family")
    _add_common(p, mode=True)
    p.add_argument("--family", required=True,
                   choices=["hamming", "cohamming", "spike",
                            "threshold-ball", "threshold-set"])
    p.add_argument("--d", type=_int_option)
    p.add_argument("--gamma", type=_float_option)
    p.add_argument("--tau", type=_int_option)
    p.add_argument("--set", help="comma-separated coordinate strings")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("primal-candidate",
                       help="evaluate a closed-form primal candidate")
    _add_common(p)
    p.add_argument("--family", required=True, choices=list(bounds.AVERAGE_FAMILIES))
    p.set_defaults(func=cmd_primal_candidate)

    p = sub.add_parser("povm", help="synthesize and verify the measurement operators")
    _add_common(p, mode=True)
    _add_cost(p)
    p.add_argument("--assume-real-amplitudes", action="store_true",
                   dest="assume_real_amplitudes")
    p.set_defaults(func=cmd_povm)

    p = sub.add_parser("simulate", help="run the measurement on a hidden string")
    _add_common(p, mode=True)
    _add_cost(p)
    p.add_argument("--x", required=True, help="hidden string, coordinate order x1..xn")
    p.add_argument("--shots", type=_shots_option, default=100000)
    p.add_argument("--seed", type=_count_option, required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("slpn", help="Bernoulli-noise summary against the k/2 barrier")
    _add_common(p, profile=False)
    p.add_argument("--n", type=_count_option, required=True)
    p.add_argument("--t", type=_float_option, required=True)
    p.add_argument("--d", type=_int_option)
    p.add_argument("--gamma", type=_float_option)
    p.set_defaults(func=cmd_slpn)

    p = sub.add_parser("threshold", help="zero-quality certificate for a threshold")
    _add_common(p, mode=True)
    p.add_argument("--tau", type=_int_option, required=True)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("enumerate", help="list canonical codes and coset leaders")
    _add_common(p, profile=False)
    p.add_argument("--n", type=_count_option, required=True)
    p.add_argument("--k", type=_int_option)
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        body, table_text = args.func(args)
        _emit(args, {"config": _config_dict(args), **body}, table_text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: end as a shell shows a command that
        # SIGPIPE stopped, and let the exit flush write to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (ToolkitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(body["audits"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
