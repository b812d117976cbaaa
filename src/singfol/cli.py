"""Command-line front end.

Frames enter as a single JSON document, either from a file (``--frame``) or
from stdin, with polynomial payloads written in the expression grammar:

    { "dimension": 4, "rank": 3, "normal_form": ["0", "x1", "x2"] }
    { "dimension": 3, "rank": 2, "fields": [["1","0","0"], ["0","1","x1"]] }

Either key only builds the fields, and the frame reads its normal form off
them, so the second document is the frame of ``"normal_form": ["0", "x1"]``
and every command reports the same results for the two.
``singfol demo <name>`` emits such a document for the built-in fixtures, so
demos pipe into the other subcommands.  Every report is deterministic:
identical inputs, flags and seeds produce byte-identical output.  A handler
returns ``(lines, payload)``, whose text lines print the payload's strings;
``lines`` may be an iterator, printed line by line as it yields, so
``integrate`` streams its CSV rows.
Exit codes: 0 success, 1 input error, 2 certificate failure.  Every reported
error is a :class:`singfol.SingfolError` carrying its ``exit_code``, and a
float overflow is an input error; any other exception is a bug.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from singfol import abnormal
from singfol.demos import DEMOS, demo_names
from singfol.exactpoly import ParseError, SingfolError, Space, parse_expression
from singfol.pfaffian import calibration_report, index_sets, pfaffian_by_recursion, skew_rank
from singfol.vectorfield import Frame, VectorField

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CERTIFICATE = 2

# integrate rejects a --T/--h asking for more RK4 steps than this
MAX_STEPS = 10 ** 7
# normalform rejects an --order d whose jets in n variables hold more than
# this many monomials, C(d + n, n); the slowest jet timed below it (6 dense
# fields, n = 7, d = 6) normalizes in 7 s on 2 vCPU; d = 3 passes to n = 20
MAX_JET_MONOMIALS = 2000
# stratify and scan-div reject a --samples above this
MAX_SAMPLES = 10 ** 5
# bracket-check rejects a --depth at which it would form more iterated
# brackets than this (m^2 + ... + m^depth for m frame fields)
MAX_BRACKETS = 10 ** 4
# bracket-check rejects an --at coordinate whose digits plus its decimal
# exponent pass this: Fraction writes the exponent out in full, and
# Fraction("1e10000000") alone takes 13 s
MAX_AT_DIGITS = 1000


class InputError(SingfolError):
    """A frame document or a flag value the command cannot take."""


def _load_frame_spec(path: str | None) -> dict:
    if path and path != "-":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read frame file: {exc}") from exc
    else:
        if sys.stdin.isatty():
            raise InputError("no frame given: pass --frame FILE or pipe a JSON document")
        text = sys.stdin.read()
    try:
        spec = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # arrays or objects nested deeper than the decoder recurses
        raise InputError(f"invalid JSON frame document: {exc}") from exc
    if not isinstance(spec, dict):
        raise InputError("frame document must be a JSON object")
    return spec


def _expressions(value, what: str) -> list:
    """``value``, checked to be a list of expression strings."""
    if not isinstance(value, list) or not all(isinstance(text, str) for text in value):
        raise InputError(f"{what} must be a list of expression strings")
    return value


def build_frame(spec: dict) -> Frame:
    """Validate a frame-spec document and build the Frame."""
    n, m = spec.get("dimension"), spec.get("rank")
    # a JSON number with a fraction or an exponent (3.7, 1e400), or a bool,
    # is not an integer, although int() would take it
    if type(n) is not int or type(m) is not int:
        raise InputError("frame document needs integer 'dimension' and 'rank'")
    if n < 1:
        raise InputError(f"'dimension' must be >= 1, got {n}")
    name = str(spec.get("name", ""))
    space = Space(n)
    try:
        if "normal_form" in spec:
            if m != n - 1:
                raise InputError(f"normal_form forces rank = dimension-1 = {n - 1}, got {m}")
            exprs = _expressions(spec["normal_form"], "normal_form")
            if len(exprs) != n - 1:
                raise InputError(f"normal_form needs {n - 1} expressions, got {len(exprs)}")
            coeffs = []
            for idx, text in enumerate(exprs, start=1):
                try:
                    coeffs.append(parse_expression(text, space))
                except ParseError as exc:
                    raise InputError(f"normal_form[{idx}]: {exc}") from exc
            return Frame.corank1(n, coeffs, name=name)
        if "fields" in spec:
            rows = spec["fields"]
            if not isinstance(rows, list):
                raise InputError("'fields' must be a list of rows of expression strings")
            if len(rows) != m:
                raise InputError(f"'fields' needs {m} rows, got {len(rows)}")
            fields = []
            for i, row in enumerate(rows, start=1):
                if len(_expressions(row, f"fields[{i}]")) != n:
                    raise InputError(f"field {i} needs {n} components, got {len(row)}")
                comps = []
                for j, text in enumerate(row, start=1):
                    try:
                        comps.append(parse_expression(text, space))
                    except ParseError as exc:
                        raise InputError(f"fields[{i}][{j}]: {exc}") from exc
                fields.append(VectorField(comps))
            return Frame(tuple(fields), name=name)
        raise InputError("frame document needs 'normal_form' or 'fields'")
    except (ValueError, IndexError) as exc:
        raise InputError(str(exc)) from exc


def _goh_rank(goh) -> int:
    """Generic rank of the (reduced) Goh matrix."""
    return skew_rank(goh.reduced if goh.reduced is not None else goh.H)


def _certify_rank(F: Frame, generic: int) -> int:
    """Even rank at which generators are produced by default, from the
    generic Goh rank."""
    top = F.m - 1 if F.m % 2 else F.m - 2
    return min(generic, max(top, 0))


def _generator_rank(F: Frame, args, goh) -> int:
    """The checked ``--rank`` flag, or the default certify rank."""
    if args.rank is None:
        return _certify_rank(F, _goh_rank(goh))
    if args.rank % 2 or not 0 <= args.rank < F.m:
        raise InputError(f"--rank must be an even integer in 0..{F.m - 1}")
    return args.rank


def _index_set_to_str(I) -> str:
    return "{" + ",".join(str(i) for i in I) + "}"


def _vector(strings: list[str]) -> str:
    """A vector's printed form, ``str(VectorField)``, from its component strings."""
    return "(" + ", ".join(strings) + ")"


def _matrix_strings(A, m: int) -> list[list[str]]:
    return [[str(A.entry(i, j)) for j in range(1, m + 1)] for i in range(1, m + 1)]


def _calibration(F: Frame) -> dict:
    top = F.m if F.m % 2 == 0 else F.m + 1
    return calibration_report(max(2, top))


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (lines, payload), text lines and --json results
# ---------------------------------------------------------------------------


def cmd_goh(F: Frame, args):
    goh = abnormal.goh_matrix(F)
    payload = {"H": _matrix_strings(goh.H, F.m)}
    lines = [f"Goh matrix of frame '{F.name or '?'}' (m={F.m}, n={F.n})"]
    lines += [f"  H[{i}] = [{', '.join(row)}]" for i, row in enumerate(payload["H"], 1)]
    if goh.reduced is not None:
        payload["reduced"] = _matrix_strings(goh.reduced, F.m)
        lines.append(f"reduced form (H = p{F.n} * Ht):")
        lines += [f"  Ht[{i}] = [{', '.join(row)}]" for i, row in enumerate(payload["reduced"], 1)]
    return lines, payload


def cmd_pfaffian(F: Frame, args):
    goh = abnormal.goh_matrix(F)
    r = args.minors
    if r % 2 or r < 2 or r > F.m:
        raise InputError(f"--minors must be a positive even integer <= m={F.m}")
    matrix = goh.reduced if goh.reduced is not None else goh.H
    kind = "reduced" if goh.reduced is not None else "phase"
    minors = {_index_set_to_str(I): str(pfaffian_by_recursion(matrix, I))
              for I in index_sets(F.m, r)}
    lines = [f"Pfaffian minors of order {r} ({kind} Goh matrix)"]
    lines += [f"  phi{I} = {value}" for I, value in minors.items()]
    return lines, {"order": r, "kind": kind, "minors": minors}


def cmd_generators(F: Frame, args):
    goh = abnormal.goh_matrix(F)
    r = _generator_rank(F, args, goh)
    gens = abnormal.abnormal_generators(F, r, goh)
    results = [{"I": list(g.I), "p_degree": list(g.p_degree),
                "Y": [str(c) for c in g.Y.components],
                "Z": None if g.Z is None else [str(c) for c in g.Z.components]} for g in gens]
    lines = [f"kernel generators at rank {r} ({len(gens)} index sets)"]
    for g, entry in zip(gens, results):
        lines.append(f"  generator I={_index_set_to_str(g.I)}  p-degrees (x,p) = {g.p_degree}")
        lines.append(f"    Y = {_vector(entry['Y'])}")
        if entry["Z"] is not None:
            lines.append(f"    Z = {_vector(entry['Z'])}")
    return lines, {"rank": r, "generators": results}


def cmd_certify(F: Frame, args):
    goh = abnormal.goh_matrix(F)
    r = _generator_rank(F, args, goh)
    gens = abnormal.abnormal_generators(F, r, goh)
    lines = [f"divergence certificates at rank {r}"]
    results = []
    for g in gens:
        cert = abnormal.divergence_certificate(g, F, goh)
        entry = {
            "I": list(g.I),
            "phase_divergence": str(cert.phase_divergence),
            "jacobi_expansion": str(cert.jacobi_expansion),
            "bracket_order": cert.bracket_order,
        }
        line = (f"  I={_index_set_to_str(g.I)}: div(Y) = {entry['phase_divergence']}, "
                f"jacobi sum = {entry['jacobi_expansion']}")
        if cert.base_constant is not None:
            entry["base_constant"] = str(cert.base_constant)
            entry["base_coefficients"] = [str(c) for c in cert.base_coefficients]
            entry["base_residual"] = str(cert.base_residual)
            line += f", base constant = {entry['base_constant']}"
        results.append(entry)
        lines.append(line)
    lines.append(f"all {len(gens)} certificates valid")
    return lines, {"rank": r, "certificates": results}


def cmd_singular_set(F: Frame, args):
    goh = abnormal.goh_matrix(F)
    if args.rank is not None:
        r = args.rank
        if r % 2 or not 0 <= r <= F.m:
            raise InputError(f"--rank must be an even integer in 0..{F.m}")
    else:
        # the locus equations live at the full generic rank, even when m is
        # too small to admit generators there
        r = _goh_rank(goh)
    if r == 0:
        return ["rank 0: the singular-set equations are empty"], {"rank": 0, "equations": []}
    eqs = abnormal.singular_set_equations(F, r, goh)
    equations = [{"I": list(I), "phi": str(q)} for I, q in zip(index_sets(F.m, r), eqs)]
    lines = [f"singular-set equations at rank {r} (common zero set of:)"]
    lines += [f"  phi{_index_set_to_str(e['I'])} = {e['phi']}" for e in equations]
    return lines, {"rank": r, "equations": equations}


def cmd_stratify(F: Frame, args):
    if args.samples < 1:
        raise InputError("--samples must be >= 1")
    if args.samples > MAX_SAMPLES:
        raise InputError(f"--samples must be <= {MAX_SAMPLES}")
    # the bounds are read exactly, so no sample falls outside the box
    lo, hi = _parse_box(args.box)
    config = abnormal.SamplerConfig(seed=args.seed, count=args.samples,
                                    box=(Fraction(lo), Fraction(hi)))
    S = abnormal.stratify(F, config)
    lines = [f"kernel-dimension levels: {{{', '.join(str(d) for d in S.dims)}}} "
             f"(seed={args.seed}, samples={args.samples})"]
    payload = {"dims": list(S.dims), "levels": []}
    for st in S.strata:
        kind = "open stratum" if st.has_interior else "locus level"
        entry = {
            "dim": st.dim, "rank": st.rank, "has_interior": st.has_interior,
            "samples": st.sample_count, "parity_ok": st.parity_ok,
            "witnesses": [{"x": [str(v) for v in w.x], "p": [str(v) for v in w.p],
                           "exact": w.exact} for w in st.witnesses],
            "vanishing_locus": [str(q) for q in st.vanishing_locus],
        }
        lines.append(f"  dim {st.dim} (rank {st.rank}, {kind}): {st.sample_count} samples, "
                     f"parity/bound {'ok' if st.parity_ok else 'violated'}")
        lines += [f"    witness x = {_vector(w['x'])}" for w in entry["witnesses"][:2]]
        payload["levels"].append(entry)
    return lines, payload


def cmd_normalform(F: Frame, args):
    from singfol.normalform import JetFrame, normalize_frame

    if args.order < 0:
        raise InputError("--order must be >= 0")
    monomials = math.comb(args.order + F.n, F.n)
    if monomials > MAX_JET_MONOMIALS:
        raise InputError(f"--order {args.order} gives jets of up to {monomials} monomials in "
                         f"{F.n} variables, more than {MAX_JET_MONOMIALS}")
    N = normalize_frame(JetFrame.from_frame(F, args.order))
    fields = [[str(c.body) for c in row] for row in N.components]
    chart = [[str(v) for v in row] for row in N.chart]
    lines = [f"normal form at jet order {args.order} (stage {N.stage})"]
    lines += [f"  X{k} = {_vector(row)}" for k, row in enumerate(fields, 1)]
    lines.append("chart matrix (original x = M . new x):")
    lines += ["  [" + ", ".join(row) + "]" for row in chart]
    return lines, {"order": args.order, "fields": fields, "chart": chart}


def _pick_generator(F: Frame, args, goh, r: int):
    gens = abnormal.abnormal_generators(F, r, goh)
    if args.field:
        try:
            wanted = tuple(sorted(int(v) for v in args.field.split(",")))
        except ValueError as exc:
            raise InputError(f"--field expects comma-separated integers: {exc}") from exc
        for g in gens:
            if g.I == wanted:
                return g
        raise InputError(f"no generator with I={_index_set_to_str(wanted)} at rank {r}")
    return gens[0]


def cmd_integrate(F: Frame, args):
    # dynamics is imported only by the numeric commands; numpy by neither
    from singfol import dynamics

    if F.omega is None:
        raise InputError("integrate needs the corank-1 normal form X^i = d_i + A_i d_n")
    if not (math.isfinite(args.h) and args.h > 0):
        raise InputError("--h must be a positive finite number")
    if not (math.isfinite(args.T) and args.T >= 0):
        raise InputError("--T must be a finite number >= 0")
    try:
        x0 = [float(v) for v in args.start.split(",")]
    except ValueError as exc:
        raise InputError(f"--from expects comma-separated numbers: {exc}") from exc
    if len(x0) != F.n:
        raise InputError(f"--from needs {F.n} coordinates")
    if not all(map(math.isfinite, x0)):
        raise InputError("--from coordinates must be finite numbers")
    steps = args.T / args.h
    if not math.isfinite(steps) or round(steps) > MAX_STEPS:
        raise InputError(f"--T/--h asks for more than {MAX_STEPS} steps")
    goh = abnormal.goh_matrix(F)
    generic = _goh_rank(goh)
    r = _certify_rank(F, generic) if args.rank is None else _generator_rank(F, args, goh)
    if r < generic:
        raise InputError(f"rank-{r} generators span the Goh kernel only on the singular set, "
                         f"not along a flow: the generic Goh rank is {generic}")
    g = _pick_generator(F, args, goh, r)
    traj = dynamics.abnormal_trajectory(F, g, x0, args.T, args.h, goh=goh)
    payload = {
        "I": list(g.I), "rank": r, "T": args.T, "h": args.h,
        "end_state": traj.flat[-traj.n:].tolist(),
        "certified": traj.certified,
    }
    return traj.csv_lines(), payload


def cmd_scan_div(F: Frame, args):
    from singfol import dynamics

    if F.omega is None:
        raise InputError("scan-div needs the corank-1 normal form X^i = d_i + A_i d_n")
    if not args.cutoff > 0:
        raise InputError("--cutoff must be positive")
    if args.samples < 0:
        raise InputError("--samples must be >= 0")
    if args.samples > MAX_SAMPLES:
        raise InputError(f"--samples must be <= {MAX_SAMPLES}")
    goh = abnormal.goh_matrix(F)
    g = _pick_generator(F, args, goh, _generator_rank(F, args, goh))
    box = _parse_box(args.box)
    scan = dynamics.divergence_ratio_scan(g.Z, box, args.samples, args.seed, args.cutoff)
    lines = [
        f"divergence ratio scan for Z_{_index_set_to_str(g.I)} on [{box[0]}, {box[1]}]^{F.n}",
        f"  samples={scan.samples} seed={scan.seed} cutoff={scan.cutoff}",
        f"  ratio_sup (estimate) = {scan.ratio_sup!r}",
        f"  skipped (|Z| below cutoff) = {scan.skipped}, near-cutoff offenders = {len(scan.offenders)}",
    ]
    payload = {
        "I": list(g.I), "ratio_sup": scan.ratio_sup, "skipped": scan.skipped,
        "offenders": [list(x) for x in scan.offenders],
        "argmax": list(scan.argmax) if scan.argmax else None,
        "div": str(scan.div),
    }
    return lines, payload


def cmd_bracket_check(F: Frame, args):
    if args.depth < 1:
        raise InputError("--depth must be >= 1")
    coords = args.at.split(",") if args.at else ["0"] * F.n
    for k, v in enumerate(coords, start=1):
        digits = sum(map(str.isdigit, v))
        exponent = re.search(r"[eE][-+]?(\d+(?:_\d+)*)", v)
        if exponent and digits <= MAX_AT_DIGITS:
            digits += int(exponent[1])
        if digits > MAX_AT_DIGITS:
            raise InputError(f"--at coordinate {k}: its digits plus its decimal exponent "
                             f"exceed {MAX_AT_DIGITS}")
    try:
        x = [Fraction(v) for v in coords]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"--at expects comma-separated numbers: {exc}") from exc
    if len(x) != F.n:
        raise InputError(f"--at needs {F.n} coordinates")
    brackets, layer = 0, F.m
    for _ in range(1, args.depth):
        layer *= F.m
        brackets += layer
        if brackets > MAX_BRACKETS:
            raise InputError(f"--depth {args.depth} needs more than {MAX_BRACKETS} brackets "
                             f"of the {F.m} frame fields")
    depth = F.bracket_generation_depth(x, args.depth)
    if depth is None:
        lines = [f"brackets up to depth {args.depth} do NOT span at the point (diagnostic only)"]
    else:
        lines = [f"brackets span the tangent space at depth {depth} (diagnostic only)"]
    return lines, {"depth": depth, "max_depth": args.depth}


def _parse_box(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise InputError(f"--box expects LO,HI: {exc}") from exc
    if not lo < hi:
        raise InputError("--box needs LO < HI")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InputError("--box needs finite LO and HI")
    return lo, hi


def _add_frame_arg(sub):
    sub.add_argument("--frame", help="frame JSON file ('-' or omitted: stdin)")
    sub.add_argument("--json", action="store_true", help="machine-readable report")


class _Parser(argparse.ArgumentParser):
    # usage errors are input errors (exit 1); exit 2 is reserved for
    # certificate failures
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let values like "-0.5,0.5" or "-1e-1,1e-1" (box bounds, start
        # points, sample counts) pass as arguments instead of being mistaken
        # for option strings
        number = r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?"
        self._negative_number_matcher = re.compile(rf"^-{number}(,-?{number})*$")

    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="singfol",
        description="Exact Goh/Pfaffian computations for polynomial frames",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    demo = subs.add_parser("demo", help="emit a built-in frame document")
    demo.add_argument("name", choices=demo_names())
    demo.add_argument("--json", action="store_true")

    goh = subs.add_parser("goh", help="print the Goh matrix H and its reduced form")
    _add_frame_arg(goh)

    pf = subs.add_parser("pfaffian", help="print Pfaffian minors of a given order")
    pf.add_argument("--minors", type=int, required=True)
    _add_frame_arg(pf)

    gen = subs.add_parser("generators", help="print kernel generators Y_I / Z_I")
    gen.add_argument("--rank", type=int, default=None)
    _add_frame_arg(gen)

    cert = subs.add_parser("certify", help="divergence certificates (exit 2 on failure)")
    cert.add_argument("--rank", type=int, default=None)
    _add_frame_arg(cert)

    sing = subs.add_parser("singular-set", help="reduced minors cutting the singular set")
    sing.add_argument("--rank", type=int, default=None)
    _add_frame_arg(sing)

    strat = subs.add_parser("stratify", help="sampled kernel-dimension levels")
    strat.add_argument("--samples", type=int, default=256)
    strat.add_argument("--seed", type=int, required=True)
    strat.add_argument("--box", default="-1,1")
    _add_frame_arg(strat)

    nf = subs.add_parser("normalform", help="jet-level frame normal form")
    nf.add_argument("--order", type=int, default=3)
    _add_frame_arg(nf)

    integ = subs.add_parser(
        "integrate", help="certified trajectory of a generator (CSV)",
        description="RK4 trajectory of a kernel generator Z_I, as CSV.  Exit 0 means that "
                    "Ht.u = 0 was checked exactly, as polynomials, before the first step, so "
                    "Z_I is a Goh kernel section everywhere; exit 2 names the nonzero "
                    "component.  The residual columns hold these exact residuals, 0.0.")
    integ.add_argument("--field", help="index set of the generator, e.g. 1,2,3")
    integ.add_argument("--rank", type=int, default=None)
    integ.add_argument("--from", dest="start", required=True, help="start point x0, comma separated")
    integ.add_argument("--T", type=float, required=True)
    integ.add_argument("--h", type=float, required=True)
    _add_frame_arg(integ)

    scan = subs.add_parser("scan-div", help="empirical |div Z| / |Z| ratio over a box")
    scan.add_argument("--field", help="index set of the generator, e.g. 1,2,3")
    scan.add_argument("--rank", type=int, default=None)
    scan.add_argument("--samples", type=int, default=256)
    scan.add_argument("--seed", type=int, required=True)
    scan.add_argument("--cutoff", type=float, default=1e-3)
    scan.add_argument("--box", default="-1,1")
    _add_frame_arg(scan)

    br = subs.add_parser("bracket-check", help="bounded bracket-generation diagnostic")
    br.add_argument("--depth", type=int, default=4)
    br.add_argument("--at", help="base point, comma separated (default origin)")
    _add_frame_arg(br)

    return parser


_HANDLERS = {
    "goh": cmd_goh,
    "pfaffian": cmd_pfaffian,
    "generators": cmd_generators,
    "certify": cmd_certify,
    "singular-set": cmd_singular_set,
    "stratify": cmd_stratify,
    "normalform": cmd_normalform,
    "integrate": cmd_integrate,
    "scan-div": cmd_scan_div,
    "bracket-check": cmd_bracket_check,
}


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); point stdout at devnull
        # so that the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_INPUT


def _main(argv: list[str] | None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    as_json = getattr(args, "json", False)

    if args.command == "demo":
        spec = DEMOS[args.name].to_spec()
        print(json.dumps(spec, indent=None if as_json else 2, sort_keys=True))
        return EXIT_OK

    try:
        spec = _load_frame_spec(args.frame)
        frame = build_frame(spec)
        lines, results = _HANDLERS[args.command](frame, args)
    except (SingfolError, OverflowError) as exc:
        if isinstance(exc, OverflowError):
            # an exact value turned into a float, a float power or a scanned value
            exc = InputError(f"a coefficient or a value is beyond the double range: {exc}")
        if as_json:
            detail = {} if exc.detail is None else {"detail": exc.detail}
            print(json.dumps({"command": args.command, "error": str(exc), **detail}, sort_keys=True))
        else:
            kind = "certificate failure" if exc.exit_code == EXIT_CERTIFICATE else "error"
            print(f"{kind}: {exc}", file=sys.stderr)
        return exc.exit_code

    if as_json:
        report = {
            "command": args.command,
            "inputs": {k: v for k, v in spec.items() if k != "description"},
            "results": results,
            "calibration": _calibration(frame),
            "seed": getattr(args, "seed", None),
        }
        print(json.dumps(report, sort_keys=True))
    else:
        if frame.name:
            print(f"# frame: {frame.name}")
        for line in lines:
            print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
