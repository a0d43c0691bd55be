"""Command-line surface for batch verification runs.

Subcommands
-----------
check       run one criterion against a function spec file
extremal    construct an extremal family member and self-check it
jack        locate a circle maximum and report z0 w'(z0)/w(z0)
identities  randomized conformance sweep of the rewrite identities

Flags are spelled out in full; abbreviations are refused.

Exit codes, decided only by :func:`main`: 0 = certified / assertions pass,
1 = hypothesis or conclusion failure, 2 = inadmissible or degenerate input
(stderr ``rejected: <message>``), 3 = usage error (stderr ``usage error:``,
``spec file error:`` or ``parameter error: <message>``).

Function spec files are UTF-8 JSON with complex scalars as two-element
``[re, im]`` arrays of finite numbers (``NaN``, ``Infinity`` and literals
beyond the float range, which Python's ``json`` reads, are refused)::

    {"kind": "BUILTIN", "builtin": "koebe", "n": 1, "trunc": 128}
    {"kind": "COEFFS", "n": 2, "trunc": 64, "coeffs": [[0,0], [0.1,0.2]]}
    {"kind": "EXTREMAL_B", "n": 1, "trunc": 128,
     "extremal": {"alpha": 0.5, "beta": [1,0], "gamma": [1,0]}}

For ``check``/``extremal`` the ``coeffs`` list gives ``a_2, a_3, ...``
(``a_1`` is implied 1).  For ``jack`` a COEFFS file is the probed series
itself: entries are ``c_1, c_2, ...`` with ``c_0 = 0`` implied.

Reports are written as JSON with a ``timestamp`` header and a ``report``
body; the body is deterministic for identical inputs and tool version.  It
is rendered in one walk over the report objects, and its text equals
``json.dumps(sort_keys=True, indent=2)`` of their plain form (see
:func:`_render`).  A report replaces a regular file as a new file, never by
truncating it, so a process crash leaves no partial report behind (see
:func:`write_report`); an empty or unwritable ``--out`` is a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import re
import stat
import sys
from datetime import datetime, timezone
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .series import (
    BUILTIN_NAMES,
    DEFAULT_TRUNC_ORDER,
    MAX_TRUNC_ORDER,
    SchlichtCandidate,
    Series,
    SeriesError,
    builtin_candidate,
    make_series,
    schlicht_from_tail,
)
from .functionals import ParameterError, identity_sweep, w_func
from .criteria import CriterionKind, CriterionParams
from .extremals import (
    SELFCHECK_RTOL,
    ExtremalFamily,
    ExtremalParams,
    InadmissibleExtremalError,
    build_extremal,
    probe_identity_a,
    verify_identity_b,
)
from .oracle import (
    SamplingConfig,
    Verdict,
    VerificationReport,
    check_criterion,
    jack_demo,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_REJECTED = 2
EXIT_USAGE = 3

_VERDICT_EXIT = {
    Verdict.CERTIFIED_SAMPLED: EXIT_OK,
    Verdict.HYPOTHESIS_FAILED: EXIT_FAILED,
    Verdict.CONCLUSION_FAILED: EXIT_FAILED,
    Verdict.INADMISSIBLE: EXIT_REJECTED,
    Verdict.DEGENERATE: EXIT_REJECTED,
}

# Leading coefficients an extremal run prints and reports.
_EMIT_COEFFS = 12

_REFUSED = "not sampled: the tail heuristic refused every candidate radius"


class UsageError(Exception):
    pass


class SpecFileError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no abbreviations: '--n' would otherwise be read as '--no-refine'
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # let values such as '-0.5,0' start with a minus sign
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise UsageError(message)


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise UsageError(f"expected a complex scalar as 're' or 're,im', got {text!r}")


def _parse_radii(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated radii, got {text!r}")


def _number(value, kind=(int, float)) -> bool:
    """Finite JSON numbers only: ``true`` and ``false`` are ints to Python,
    and it reads ``NaN``, ``Infinity`` and overflowing literals such as
    ``1e400`` as floats; an integer beyond the float range is refused too."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _pair(value) -> list[float] | None:
    """``value`` as ``[re, im]`` floats, or None unless it is a pair of
    finite numbers."""
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and _number(value[0]) and _number(value[1])):
        return [float(value[0]), float(value[1])]
    return None


def _pair_error(where: str, value) -> SpecFileError:
    return SpecFileError(f"{where}: complex scalars are [re, im] pairs of "
                         f"finite numbers, got {value!r}")


_SPEC_FIELDS = {
    "COEFFS": {"kind", "n", "trunc", "coeffs"},
    "BUILTIN": {"kind", "n", "trunc", "builtin"},
    "EXTREMAL_A": {"kind", "n", "trunc", "extremal"},
    "EXTREMAL_B": {"kind", "n", "trunc", "extremal"},
}


def parse_function_spec(data: dict) -> dict:
    """Validate a spec file's object and return its canonical form, the one
    reports echo: complex scalars as ``[re, im]`` float pairs and a float
    ``extremal.alpha``.  Parsing the canonical form returns it unchanged."""
    if not isinstance(data, dict):
        raise SpecFileError("spec file must hold a JSON object")
    kind = data.get("kind")
    if kind not in _SPEC_FIELDS:
        raise SpecFileError(
            f"field 'kind': expected one of {sorted(_SPEC_FIELDS)}, got {kind!r}")
    allowed = _SPEC_FIELDS[kind]
    extra = set(data) - allowed
    if extra:
        raise SpecFileError(f"unexpected fields for kind {kind}: {sorted(extra)}")
    missing = allowed - set(data)
    if missing:
        raise SpecFileError(f"missing fields for kind {kind}: {sorted(missing)}")
    n = data["n"]
    trunc = data["trunc"]
    if not _number(n, int) or n < 1:
        raise SpecFileError(f"field 'n': positive integer required, got {n!r}")
    if not _number(trunc, int) or trunc < n + 2:
        raise SpecFileError(
            f"field 'trunc': integer >= n+2 = {n + 2} required, got {trunc!r}")
    if trunc > MAX_TRUNC_ORDER:
        raise SpecFileError(
            f"field 'trunc': at most {MAX_TRUNC_ORDER} supported, got {trunc}")
    out: dict = {"kind": kind, "n": n, "trunc": trunc}
    if kind == "COEFFS":
        raw = data["coeffs"]
        if not isinstance(raw, list):
            raise SpecFileError("field 'coeffs': list of [re, im] pairs required")
        if len(raw) > trunc - 1:
            raise SpecFileError(
                f"field 'coeffs': {len(raw)} entries exceed trunc-1 = {trunc - 1}")
        coeffs = []
        for i, v in enumerate(raw):
            pair = _pair(v)
            if pair is None:
                raise _pair_error(f"coeffs[{i}]", v)
            coeffs.append(pair)
        out["coeffs"] = coeffs
        return out
    if kind == "BUILTIN":
        name = data["builtin"]
        if name not in BUILTIN_NAMES:
            raise SpecFileError(f"field 'builtin': expected one of "
                                f"{BUILTIN_NAMES}, got {name!r}")
        out["builtin"] = name
        return out
    ext = data["extremal"]
    if not isinstance(ext, dict) or set(ext) != {"alpha", "beta", "gamma"}:
        raise SpecFileError(
            "field 'extremal': object with exactly alpha, beta, gamma required")
    alpha = ext["alpha"]
    if not _number(alpha):
        raise SpecFileError(
            f"field 'extremal.alpha': finite number required, got {alpha!r}")
    out["extremal"] = {"alpha": float(alpha)}
    for name in ("beta", "gamma"):
        pair = _pair(ext[name])
        if pair is None:
            raise _pair_error(f"extremal.{name}", ext[name])
        out["extremal"][name] = pair
    return out


def load_function_spec(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise SpecFileError(f"cannot read spec file {path}: {e}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecFileError(
            f"malformed JSON in {path} at line {e.lineno}, column {e.colno}: {e.msg}")
    except ValueError as e:  # an integer literal of more digits than int() takes
        raise SpecFileError(f"malformed JSON in {path}: {e}")
    return parse_function_spec(data)


def candidate_from_spec(fs: dict
                        ) -> tuple[SchlichtCandidate, ExtremalParams | None]:
    """The candidate a spec names, with the construction of an
    ``EXTREMAL_*`` spec (None for other kinds)."""
    if fs["kind"] == "BUILTIN":
        return builtin_candidate(fs["builtin"], fs["trunc"], fs["n"]), None
    if fs["kind"] == "COEFFS":
        return schlicht_from_tail(fs["n"], [complex(*c) for c in fs["coeffs"]],
                                  fs["trunc"]), None
    ext = fs["extremal"]
    p = ExtremalParams(family=ExtremalFamily(fs["kind"]), n=fs["n"],
                       alpha=ext["alpha"], beta=complex(*ext["beta"]),
                       gamma=complex(*ext["gamma"]))
    return build_extremal(p, fs["trunc"]), p


def probe_series_from_spec(fs: dict) -> Series:
    """Series the jack command probes: COEFFS files are taken verbatim as
    ``c_1, c_2, ...`` (c_0 = 0); other kinds contribute their w-transform."""
    if fs["kind"] == "COEFFS":
        arr = np.zeros(fs["trunc"] + 1, dtype=np.complex128)
        for i, c in enumerate(fs["coeffs"]):
            arr[i + 1] = complex(*c)
        return make_series(arr)
    return w_func(candidate_from_spec(fs)[0])


_NONFINITE = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}
_FLOATS = {float}


def _float_items(values, pad: str) -> str:
    """JSON list of floats at indent ``pad``: ``float.__repr__`` for each,
    non-finite ones spelled as strings.  A finite repr has no 'n'."""
    inner = pad + "  "
    sep = ",\n" + inner
    text = sep.join(map(float.__repr__, values))
    if "n" in text:
        text = sep.join(_NONFINITE.get(s, s) for s in map(float.__repr__, values))
    return "[\n" + inner + text + "\n" + pad + "]"


def _render(obj, pad: str) -> str:
    """JSON text of ``obj`` nested at indent ``pad``, as
    ``json.dumps(sort_keys=True, indent=2)`` writes the plain form of it:
    an Enum is its value, a numpy scalar the Python scalar, a complex
    ``[re, im]``, a dataclass the dict of its fields, a dict has ``str``
    keys and a tuple is a list; non-finite floats, complex parts included,
    are the strings "nan", "inf" and "-inf".  Other objects raise
    ``TypeError``, as in ``json``.  The common types are tested first; a
    str, int or float Enum member writes as its value either way."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == _FLOATS:
            return _float_items(obj, pad)
        inner = pad + "  "
        return ("[\n" + inner + (",\n" + inner).join(
            [_render(v, inner) for v in obj]) + "\n" + pad + "]")
    if isinstance(obj, float):
        s = float.__repr__(obj)
        return _NONFINITE.get(s, s)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted({str(k): v for k, v in obj.items()}.items())
        inner = pad + "  "
        return ("{\n" + inner + (",\n" + inner).join(
            [encode_basestring_ascii(k) + ": " + _render(v, inner)
             for k, v in items]) + "\n" + pad + "}")
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, Enum):
        return _render(obj.value, pad)
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, np.floating):
        return _render(float(obj), pad)
    if isinstance(obj, (complex, np.complexfloating)):
        return _float_items((float(obj.real), float(obj.imag)), pad)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def render_report_body(command: str, sections: dict) -> str:
    body = {"tool": {"name": "starcert", "version": __version__},
            "command": command}
    body.update(sections)
    return _render(body, "") + "\n"


# Numbers the hidden sibling files of this process, so no two calls share one.
_SIBLING_SEQ = itertools.count()


def write_report(path: str, body_text: str) -> None:
    """Write ``body_text`` under a fresh ``timestamp`` header to ``path``.

    A missing path, or a regular file with one link that this process may
    write, gets a new file (:func:`_write_fresh`), so after a process crash
    the path holds the old report, no file or the whole new one, never part
    of one.  Every other target (a device, a FIFO, a report with other hard
    links, a directory), and one whose directory refuses the new file, is
    written in place by ``Path.write_text``, with its errors.
    """
    stamp = datetime.now(timezone.utc).isoformat()
    payload = ('{\n"timestamp": ' + json.dumps(stamp) + ',\n"report":\n'
               + body_text.rstrip("\n") + "\n}\n")
    target = Path(path)
    if not _write_fresh(target, payload.encode()):
        target.write_text(payload)


def _write_fresh(target: Path, data: bytes) -> bool:
    """Write ``data`` to a hidden sibling ``.<name>.<pid>.<seq>.tmp``, unlink
    the old file and rename the sibling onto it; return False, having
    changed nothing, when ``target`` must be written in place.

    A symlink is followed, so the link stays and its target gets the
    report; a replaced report keeps its permission bits.  A failure before
    the rename removes the sibling and propagates; a crash may leave it
    behind.  Nothing is synced, so power loss is not covered.  On ext4,
    truncating the old file, or renaming over it, was measured slower
    (``BENCH_21.json``), likely because ext4 then writes it back at once.
    """
    try:
        old = os.stat(target)
    except FileNotFoundError:
        old = None
    if old is not None and not (stat.S_ISREG(old.st_mode) and old.st_nlink == 1
                                and os.access(target, os.W_OK)):
        return False
    # realpath costs a system call per path component; only a link needs it
    real = os.path.realpath(target) if os.path.islink(target) else target
    head, name = os.path.split(real)
    sibling = os.path.join(head, f".{name}.{os.getpid()}.{next(_SIBLING_SEQ)}.tmp")
    try:
        fd = os.open(sibling, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError:  # e.g. an unwritable directory, or a name at the length limit
        return False
    try:
        try:
            if old is not None:
                os.fchmod(fd, stat.S_IMODE(old.st_mode))
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        if old is not None:
            try:
                os.unlink(real)
            except FileNotFoundError:  # a concurrent writer got there first
                pass
        os.rename(sibling, real)
    except BaseException:
        try:
            os.unlink(sibling)
        except OSError:
            pass
        raise
    return True


def _write_out(args, command: str, sections: dict) -> None:
    if args.out is not None:
        if not args.out:  # Path("") is ".", which would name the wrong cause
            raise UsageError("cannot write report to '': empty path")
        try:
            write_report(args.out, render_report_body(command, sections))
        except OSError as e:
            raise UsageError(
                f"cannot write report to {args.out}: {e.strerror or e}") from e
        print(f"report written to {args.out}")


def _fmt_c(z: complex) -> str:
    return f"[{z.real!r}, {z.imag!r}]"


def _fmt(x) -> str:
    return "none" if x is None else str(x)


def _sampling_config(args) -> SamplingConfig:
    return SamplingConfig(radii=args.radii, angles=args.angles,
                          refine=args.refine)


def _criterion_params(args, n: int) -> CriterionParams:
    kwargs = dict(kind=CriterionKind(args.kind), n=n, alpha=args.alpha,
                  rho=args.rho)
    if args.beta is not None:
        kwargs["beta"] = args.beta
    if args.gamma is not None:
        kwargs["gamma"] = args.gamma
    return CriterionParams(**kwargs)


def _print_verification(rep: VerificationReport) -> None:
    spec = rep.spec
    print(f"criterion: {rep.kind.value}  lhs={spec.lhs.value}  "
          f"beta={_fmt_c(spec.eff_beta)} gamma={_fmt_c(spec.eff_gamma)} "
          f"alpha={_fmt(spec.alpha)} rho={_fmt(spec.rho)}")
    print(f"admissible: {'yes' if spec.admissible else 'NO'} "
          f"(margin {_fmt(spec.admissibility_margin)})")
    if rep.verdict is Verdict.INADMISSIBLE:
        print("verdict: INADMISSIBLE")
        return
    if spec.hypothesis_shape == "positive_real":
        print(f"hypothesis: min Re(lhs) = {_fmt(rep.hypothesis_sup)} "
              f"(needs > 0) -> margin {_fmt(rep.hypothesis_margin)}")
    elif rep.hypothesis_margin is None:
        print(f"hypothesis: {_REFUSED}")
        print("conclusion: not sampled: the hypothesis was not sampled")
    else:
        print(f"hypothesis: sup |lhs| = {_fmt(rep.hypothesis_sup)} "
              f"+ tail {_fmt(rep.hypothesis_tail)} vs bound "
              f"{_fmt(spec.rhs_bound)} -> margin {_fmt(rep.hypothesis_margin)}")
        if rep.conclusion_margin is None:
            print(f"conclusion: {_REFUSED}")
        else:
            print(f"conclusion: sup |f/(zf') - {_fmt(spec.conclusion_center)}| = "
                  f"{_fmt(rep.conclusion_sup)} vs {_fmt(spec.conclusion_radius)} "
                  f"-> margin {_fmt(rep.conclusion_margin)}")
    if rep.cross_min_re is not None:
        print(f"cross-check: min Re(zf'/f) = {_fmt(rep.cross_min_re)} vs "
              f"order {_fmt(spec.order)} -> margin {_fmt(rep.cross_margin)}")
    if rep.hypothesis_witness is not None:
        r, th = rep.hypothesis_witness
        print(f"worst witness: r={_fmt(r)} theta={_fmt(th)}")
    print(f"denominator violations: {len(rep.denominator_violations)}")
    if rep.skipped_radii:
        print(f"skipped radii (tail heuristic refused): "
              f"{[float(r) for r in rep.skipped_radii]}")
    print(f"note: {rep.tail_flag}")
    if rep.escalation:
        print(f"ESCALATION: {rep.escalation}")
    print(f"verdict: {rep.verdict.value}")


def cmd_check(args) -> int:
    # MOCANU reads only alpha; every other kind needs gamma
    if args.gamma is None and args.kind != CriterionKind.MOCANU.value:
        raise UsageError("the following arguments are required: --gamma")
    fs = load_function_spec(args.spec)
    cfg = _sampling_config(args)
    f, extremal = candidate_from_spec(fs)
    params = _criterion_params(args, fs["n"])
    rep = check_criterion(f, params, cfg)
    sections = {"function": fs, "criterion_params": params, "sampling": cfg}
    if extremal is not None:
        sections["selfcheck"] = _selfcheck(f, extremal)
    return _finish(args, "check", rep, sections)


# The expression each family's self-check residual measures.
_RESIDUAL_LABELS = {
    ExtremalFamily.EXTREMAL_A:
        "|lhs_a - (S z^n + beta)/(1 + (conj(beta)/S) z^n)|",
    ExtremalFamily.EXTREMAL_B: "|lhs_b - S z^n|",
}


def _selfcheck(f: SchlichtCandidate, p: ExtremalParams) -> dict:
    """The report's ``selfcheck`` section: the family's identity residual
    and the tolerance it must stay within."""
    resid = (verify_identity_b(f, p) if p.family is ExtremalFamily.EXTREMAL_B
             else probe_identity_a(f, p))
    return {"identity_residual": resid, "tolerance": p.selfcheck_tol}


def _finish(args, command: str, rep: VerificationReport, sections: dict) -> int:
    """Print ``rep``, write the report and return the exit code.  A
    construction whose ``selfcheck`` section fails its own identity beyond
    rounding yields no verdict: DEGENERATE, with one stderr note naming
    both numbers."""
    sc = sections.get("selfcheck")
    if sc is not None and not sc["identity_residual"] <= sc["tolerance"]:
        print(f"rejected: extremal self-check residual "
              f"{sc['identity_residual']!r} exceeds its tolerance "
              f"{sc['tolerance']!r} ({SELFCHECK_RTOL:g} x max(1, S))",
              file=sys.stderr)
        rep = dataclasses.replace(rep, verdict=Verdict.DEGENERATE)
    _print_verification(rep)
    _write_out(args, command, {**sections, "result": rep})
    return _VERDICT_EXIT[rep.verdict]


def cmd_extremal(args) -> int:
    cfg = _sampling_config(args)
    params = ExtremalParams(
        family=ExtremalFamily(args.family), n=args.n, alpha=args.alpha,
        beta=args.beta, gamma=args.gamma)
    f = build_extremal(params, args.trunc)

    print(f"family: {params.family.value}  n={params.n}  "
          f"alpha={params.alpha!r}  beta={_fmt_c(params.beta)}  "
          f"gamma={_fmt_c(params.gamma)}  S={params.S!r}")
    k = min(_EMIT_COEFFS, f.trunc_order)
    for i in range(1, k + 1):
        c = f.series.coeffs[i]
        print(f"a_{i} = {_fmt_c(complex(c))}")

    selfcheck = _selfcheck(f, params)
    print(f"identity residual {_RESIDUAL_LABELS[params.family]}: "
          f"{selfcheck['identity_residual']!r}")

    crit = params.criterion
    return _finish(args, "extremal", check_criterion(f, crit, cfg), {
        "extremal_params": params,
        "trunc": args.trunc,
        "coefficients": [complex(c) for c in f.series.coeffs[: k + 1]],
        "selfcheck": selfcheck,
        "criterion_params": crit,
        "sampling": cfg,
    })


def cmd_jack(args) -> int:
    fs = load_function_spec(args.spec)
    cfg = _sampling_config(args)
    w = probe_series_from_spec(fs)
    order = args.order if args.order is not None else fs["n"]
    res = jack_demo(w, order, args.radius, cfg)
    print(f"k_est = {_fmt_c(res.k_est)}")
    print(f"max point z0 = {_fmt_c(res.max_point)}  |w(z0)| = {res.max_modulus!r}")
    print(f"imaginary part within tolerance: {'yes' if res.imag_ok else 'NO'}")
    print(f"real part >= order {order}: {'yes' if res.real_ok else 'NO'}")
    print(f"conforms: {'yes' if res.conforms else 'NO'}")
    _write_out(args, "jack", {
        "function": fs,
        "order": order,
        "radius": args.radius,
        "sampling": {"angles": cfg.angles, "refine": cfg.refine},
        "result": res,
    })
    return EXIT_OK if res.conforms else EXIT_FAILED


def cmd_identities(args) -> int:
    res = identity_sweep(per_n=args.per_n, pairs=args.pairs,
                         trunc_order=args.trunc, seed=args.seed)
    print(f"functions per class index: {args.per_n}; (beta, gamma) pairs: "
          f"{args.pairs}; truncation order {args.trunc}; seed {args.seed}")
    print(f"max residual, identity A (lhs_a (1+w) = beta - gamma z w'): "
          f"{res.max_residual_a!r}")
    print(f"max residual, identity B (lhs_b (1+w) = -(beta w + gamma (z w' + w))): "
          f"{res.max_residual_b!r}")
    tol = SELFCHECK_RTOL  # the one identity tolerance, the self-check's
    ok = res.max_residual_a < tol and res.max_residual_b < tol
    print(f"tolerance {tol!r}: {'PASS' if ok else 'FAIL'}")
    _write_out(args, "identities", {"sweep": res, "tol": tol})
    return EXIT_OK if ok else EXIT_FAILED


_RADII_HELP = ("comma-separated ascending candidate radii; each functional "
               "is sampled on the largest one its tail allowance accepts "
               "(default 0.10..0.99 step 0.01 plus 0.995)")


def _add_sampling_flags(sp, radii_help: str = _RADII_HELP) -> None:
    sp.add_argument("--radii", type=_parse_radii,
                    default=SamplingConfig.radii, help=radii_help)
    sp.add_argument("--angles", type=int, default=SamplingConfig.angles,
                    help="samples per circle (default 2048)")
    sp.add_argument("--no-refine", action="store_false", dest="refine",
                    help="skip Newton refinement of circle extrema")
    sp.add_argument("--out", default=None, help="write a JSON report here")


def build_parser() -> _Parser:
    parser = _Parser(prog="starcert",
                     description="sampled certification of starlikeness criteria")
    parser.add_argument("--version", action="version",
                        version=f"starcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run one criterion against a function spec")
    p.add_argument("spec", help="path to a function spec file (JSON)")
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in CriterionKind])
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=_parse_complex, default=None,
                   help="complex as 're,im' (COR_A fixes beta = 1)")
    p.add_argument("--gamma", type=_parse_complex, default=None,
                   help="complex as 're,im' (required except for MOCANU)")
    p.add_argument("--rho", type=float, default=None,
                   help="disk radius (LEMMA_* kinds only)")
    _add_sampling_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("extremal", help="construct and self-check an extremal")
    p.add_argument("--family", required=True,
                   choices=[f.value for f in ExtremalFamily])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=_parse_complex, required=True)
    p.add_argument("--gamma", type=_parse_complex, required=True)
    p.add_argument("--trunc", type=int, default=DEFAULT_TRUNC_ORDER)
    _add_sampling_flags(p)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("jack", help="probe the circle maximum of a series")
    p.add_argument("spec", help="path to a function spec file (JSON)")
    p.add_argument("--order", type=int, default=None,
                   help="claimed vanishing order (default: the file's n)")
    p.add_argument("--radius", type=float, default=0.9)
    _add_sampling_flags(p, radii_help="ignored: jack samples only the "
                                      "--radius circle (still validated)")
    p.set_defaults(func=cmd_jack)

    p = sub.add_parser("identities",
                       help="randomized sweep of the rewrite identities")
    p.add_argument("--per-n", type=int, default=100)
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--trunc", type=int, default=48)
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_identities)

    return parser


@functools.cache
def _parser() -> _Parser:
    # argparse keeps no state between parses, so one tree serves every call
    return build_parser()


def main(argv=None) -> int:
    # any exception not named here is a bug and keeps its traceback
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # --help / --version paths
        return int(e.code or 0)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SpecFileError as e:
        print(f"spec file error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ParameterError as e:
        print(f"parameter error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (SeriesError, InadmissibleExtremalError) as e:
        print(f"rejected: {e}", file=sys.stderr)
        return EXIT_REJECTED


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
