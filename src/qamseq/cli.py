"""Command-line surface: construct, enumerate, ccdf, verify.

Exit codes: 0 success, 1 verification failure, 2 usage or constraint error.
Records are emitted as self-describing JSON (symbols as exact integer
lattice pairs plus a scale tag, never floats); curves as CSV with 12
significant digits.  Identical flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .analysis import (
    EnvelopeConfig,
    ccdf,
    default_threshold_grid,
    pep_batch,
    pmepr,
    random_baseline,
    star,
    star_batch,
)
from .constellation import ComplexSequence, Scale
from .constructions import (
    CodewordRecord,
    ConstructionParams,
    FamilyBlock,
    Modulation,
    Offset16,
    Offset64,
    OffsetConstraintError,
    OffsetKind,
    build,
    classify_offset64,
    component_values,
    count_enumerated,
    default_jobs,
    family_size,
    grid_records,
    iter_family_chunks,
    map_family_blocks,
    star_bound,
)
from .gbf import PathQuadratic
from .verification import (
    STAR_TOL,
    CheckResult,
    example_regression,
    lemma_sweep,
    oversampling_audit,
    parseval_audit,
    theorem_bound_audit,
)

ENUMERATION_CAPS = {Modulation.QAM16: 4, Modulation.QAM64: 3}

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"{what}: expected comma-separated integers, got {text!r}") from exc


def _parse_offset(values: list[int], modulation: Modulation):
    if modulation is Modulation.QAM16:
        if len(values) != 3:
            raise UsageError("16qam offset needs d1,d2,d3")
        return Offset16(*values).validate()
    if len(values) != 5:
        raise UsageError("64qam offset needs d1,d2,d3,h1,h3")
    d = Offset16(values[0], values[1], values[2]).validate()
    return classify_offset64(d, values[3], values[4])


def _offset_doc(offset) -> dict:
    if isinstance(offset, Offset16):
        return {"d1": offset.d1, "d2": offset.d2, "d3": offset.d3}
    return {
        "kind": offset.kind.value,
        "d1": offset.d.d1,
        "d2": offset.d.d2,
        "d3": offset.d.d3,
        "h1": offset.h1,
        "h2": offset.h2,
        "h3": offset.h3,
    }


def _offset_from_doc(doc: dict):
    if "kind" not in doc:
        return Offset16(doc["d1"], doc["d2"], doc["d3"]).validate()
    d = Offset16(doc["d1"], doc["d2"], doc["d3"]).validate()
    return Offset64(OffsetKind(doc["kind"]), d, doc["h1"], doc["h2"], doc["h3"]).validate()


def _lattice_pairs(seq: ComplexSequence) -> list[list[int]]:
    return [list(p) for p in zip(seq.re.tolist(), seq.im.tolist())]


def codeword_doc(
    record: CodewordRecord,
    oversample: int = 16,
    star_value: float | None = None,
    pmepr_value: float | None = None,
) -> dict:
    """JSON-ready document for one codeword; exact ints plus star and PMEPR
    (at this oversampling), computed here unless the caller scored them."""
    params = record.params
    comps = record.components if record.components is not None else component_values(params)
    seq, primed = record.sequence, record.primed_sequence
    n = len(seq)
    if star_value is None:
        star_value = star(seq, primed)
    if pmepr_value is None:
        pmepr_value = pmepr(seq, EnvelopeConfig(oversample=oversample))
    return {
        "format": "qamseq-codeword",
        "m": params.m,
        "n": n,
        "modulation": params.modulation.value,
        "pi": list(params.base.pi),
        "linear": list(params.base.linear),
        "constant": params.base.constant,
        "offset": _offset_doc(params.offset),
        "scale_denominator": seq.scale.value,
        "base": comps[0].tolist(),
        "components": [c.tolist() for c in comps[1:]],
        "symbols": _lattice_pairs(seq),
        "primed_symbols": _lattice_pairs(primed),
        "star": star_value,
        "star_over_n": star_value / n,
        "pmepr": pmepr_value,
        "oversample": oversample,
    }


def params_from_doc(doc: dict) -> ConstructionParams:
    base = PathQuadratic(
        m=doc["m"],
        pi=tuple(doc["pi"]),
        linear=tuple(doc["linear"]),
        constant=doc["constant"],
    )
    return ConstructionParams(base=base, offset=_offset_from_doc(doc["offset"]))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(_is_int(v) for v in value)


def _is_pair_list(value) -> bool:
    return isinstance(value, list) and all(_is_int_list(p) and len(p) == 2 for p in value)


# the payload fields of a codeword document, every one required but "star":
# (shape test, what the shape is)
_PAYLOAD_SHAPES = {
    "scale_denominator": (lambda v: _is_int(v) and v in {s.value for s in Scale},
                          f"one of {', '.join(str(s.value) for s in Scale)}"),
    "symbols": (_is_pair_list, "a list of [re, im] integer pairs"),
    "primed_symbols": (_is_pair_list, "a list of [re, im] integer pairs"),
    "base": (_is_int_list, "a list of integers"),
    "components": (lambda v: isinstance(v, list) and all(_is_int_list(c) for c in v),
                   "a list of integer lists"),
    "star": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
}


def verify_codeword_doc(doc: dict) -> list[str]:
    """Regenerate from the document's parameters and diff against its payload."""
    problems = []
    try:
        params = params_from_doc(doc)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unparseable parameters: {exc}"]
    missing = [key for key in _PAYLOAD_SHAPES if key != "star" and key not in doc]
    if missing:
        return [f"record has no {key!r}" for key in missing]
    malformed = [
        f"record field {key!r} is not {what}"
        for key, (fits, what) in _PAYLOAD_SHAPES.items()
        if key in doc and not fits(doc[key])
    ]
    if malformed:
        return malformed
    record = build(params)
    scale_ok = doc["scale_denominator"] == record.sequence.scale.value
    if not scale_ok or _lattice_pairs(record.sequence) != doc["symbols"]:
        problems.append("symbols do not match regeneration from parameters")
    if not scale_ok or _lattice_pairs(record.primed_sequence) != doc["primed_symbols"]:
        problems.append("primed symbols do not match regeneration")
    comps = record.components
    if comps[0].tolist() != doc["base"]:
        problems.append("base sequence does not match regeneration")
    if [c.tolist() for c in comps[1:]] != doc["components"]:
        problems.append("component sequences do not match regeneration")
    bound = star_bound(params.offset)
    n = len(record.sequence)
    s = star(record.sequence, record.primed_sequence) / n
    if s > bound + STAR_TOL:
        problems.append(f"star/n = {s} exceeds bound {bound}")
    if "star" in doc and not abs(doc["star"] - s * n) <= 1e-6:
        problems.append("stored star value does not match recomputation")
    return problems


def _record_csv_lines(doc: dict) -> list[str]:
    lines = [f"# {key}={json.dumps(doc[key], sort_keys=True)}" for key in (
        "m", "n", "modulation", "pi", "linear", "constant", "offset",
        "scale_denominator", "star", "pmepr",
    )]
    comps = doc["components"]
    comp_names = ["component1"] if len(comps) == 1 else ["component1", "component2"]
    lines.append(",".join(["index", "base", *comp_names, "re", "im", "primed_re", "primed_im"]))
    for i in range(doc["n"]):
        row = [i, doc["base"][i], *(c[i] for c in comps),
               doc["symbols"][i][0], doc["symbols"][i][1],
               doc["primed_symbols"][i][0], doc["primed_symbols"][i][1]]
        lines.append(",".join(str(v) for v in row))
    return lines


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def cmd_construct(args) -> int:
    modulation = Modulation(args.modulation)
    pi = tuple(_parse_int_list(args.pi, "--pi"))
    coeffs = _parse_int_list(args.c, "--c")
    m = len(pi)
    if args.m is not None and args.m != m:
        raise UsageError(f"--m {args.m} disagrees with --pi of length {m}")
    if len(coeffs) != m + 1:
        raise UsageError(f"--c needs {m} linear coefficients plus the constant")
    offset = _parse_offset(_parse_int_list(args.offset, "--offset"), modulation)
    base = PathQuadratic(m=m, pi=pi, linear=tuple(coeffs[:m]), constant=coeffs[m])
    record = build(ConstructionParams(base=base, offset=offset))
    doc = codeword_doc(record, oversample=args.oversample)
    if args.format == "json":
        _write_out(json.dumps(doc, sort_keys=True, indent=2), args.out)
    else:
        _write_out("\n".join(_record_csv_lines(doc)), args.out)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    modulation = Modulation(args.modulation)
    if args.m <= 2:
        raise UsageError(f"family defined for m > 2, got m={args.m}")
    cap = ENUMERATION_CAPS[modulation]
    if args.m > cap and not args.stream:
        raise UsageError(
            f"m={args.m} exceeds the default cap {cap} for {modulation.value}; "
            f"pass --stream to acknowledge the family size {family_size(args.m, modulation)}"
        )
    if args.count_only:
        closed = family_size(args.m, modulation)
        enumerated = count_enumerated(args.m, modulation)
        doc = {
            "m": args.m,
            "modulation": modulation.value,
            "closed_form": closed,
            "enumerated": enumerated,
            "match": closed == enumerated,
        }
        _write_out(json.dumps(doc, sort_keys=True), args.out)
        return EXIT_OK if doc["match"] else EXIT_VERIFY_FAILED
    # scoring validates oversample too, but only after --out has been truncated
    EnvelopeConfig(oversample=args.oversample)

    def lines():
        n = 1 << args.m
        for blocks in iter_family_chunks(args.m, modulation):
            sign = blocks[0].companion_sign
            stars = [star_batch(b.sym_re, b.sym_im, b.sym_re * sign, b.sym_im * sign, b.scale.value)
                     for b in blocks]
            pmeprs = [pep_batch(b.complex_symbols(), args.oversample) / n for b in blocks]
            # offsets as columns, read row-major: the order of grid_records
            scores = zip(np.stack(stars, 1).ravel().tolist(), np.stack(pmeprs, 1).ravel().tolist())
            for record, (s, p) in zip(grid_records(blocks), scores):
                yield json.dumps(codeword_doc(record, args.oversample, s, p), sort_keys=True)

    if args.out is None or args.out == "-":
        for line in lines():
            sys.stdout.write(line + "\n")
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            for line in lines():
                fh.write(line + "\n")
    return EXIT_OK


def _block_pmeprs(block: FamilyBlock, oversample: int) -> tuple[str, np.ndarray]:
    return block.kind, pep_batch(block.complex_symbols(), oversample) / (1 << block.m)


def family_pmeprs(
    m: int, modulation: Modulation, oversample: int = 16, jobs: int | None = None
) -> dict[str, np.ndarray]:
    """Oversampled PMEPR of every family member, grouped by offset kind."""
    grouped: dict[str, list[np.ndarray]] = {}
    pmeprs = functools.partial(_block_pmeprs, oversample=oversample)
    for kind, values in map_family_blocks(pmeprs, m, modulation, jobs):
        grouped.setdefault(kind, []).append(values)
    return {kind: np.concatenate(vals) for kind, vals in grouped.items()}


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def cmd_ccdf(args) -> int:
    modulation = Modulation(args.modulation)
    if args.m <= 2:
        raise UsageError(f"family defined for m > 2, got m={args.m}")
    n = 1 << args.m
    thresholds = default_threshold_grid()
    by_kind = family_pmeprs(args.m, modulation, oversample=args.oversample, jobs=args.jobs)
    constructed = np.concatenate(list(by_kind.values()))
    curves = {"ccdf_constructed": ccdf(constructed, thresholds)}
    if modulation is Modulation.QAM64:
        curves["ccdf_type1"] = ccdf(by_kind["type1"], thresholds)
        curves["ccdf_type2"] = ccdf(by_kind["type2"], thresholds)

    baseline_seqs = random_baseline(n, modulation, args.baseline_count, args.seed)
    z = np.stack([s.to_complex() for s in baseline_seqs])
    baseline_pmeprs = pep_batch(z, args.oversample) / n
    curves["ccdf_baseline"] = ccdf(baseline_pmeprs, thresholds)

    names = list(curves)
    lines = [
        f"# qamseq ccdf m={args.m} modulation={modulation.value} "
        f"baseline_count={args.baseline_count} seed={args.seed} oversample={args.oversample}",
        ",".join(["threshold_linear", "threshold_db", *names]),
    ]
    for idx, thr in enumerate(thresholds):
        row = [_fmt(thr), _fmt(10 * np.log10(thr))]
        row += [_fmt(curves[name].probabilities[idx]) for name in names]
        lines.append(",".join(row))
    _write_out("\n".join(lines), args.out)
    return EXIT_OK


def _suite_checks(args) -> list[CheckResult]:
    checks: list[CheckResult] = []
    if args.suite in ("examples", "all"):
        checks += example_regression(oversample=args.oversample)
    if args.suite in ("lemmas", "all"):
        checks += lemma_sweep(m=args.m).checks()
    if args.suite in ("bounds", "all"):
        for modulation in (Modulation.QAM16, Modulation.QAM64):
            report = theorem_bound_audit(
                args.m, modulation, oversample=args.oversample, jobs=args.jobs
            )
            checks += report.checks()
        worst_parseval = parseval_audit()
        checks.append(
            CheckResult(
                name="analysis.parseval",
                passed=worst_parseval <= 1e-9,
                observed=f"max relative gap {worst_parseval:.3e} over 100 random codewords",
                requirement="<= 1e-9 relative",
            )
        )
        worst_gap, dense_gap = oversampling_audit(3, Modulation.QAM16)
        checks.append(
            CheckResult(
                name="analysis.oversampling_adequacy",
                passed=worst_gap <= 0.005 and dense_gap <= 1e-9,
                observed=f"max relative PEP gap L=16 vs L=32: {worst_gap:.3e}; "
                f"FFT vs dense DFT at L=32: {dense_gap:.3e}",
                requirement="<= 0.5% and <= 1e-9 relative over the m=3 16qam family",
            )
        )
    return checks


def cmd_verify(args) -> int:
    if args.record is not None:
        try:
            with open(args.record, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read --record {args.record}: {exc.strerror}") from exc
        problems = verify_codeword_doc(doc)
        report = {
            "record": args.record,
            "passed": not problems,
            "problems": problems,
        }
        _write_out(json.dumps(report, sort_keys=True, indent=2), args.out)
        return EXIT_OK if not problems else EXIT_VERIFY_FAILED

    checks = _suite_checks(args)
    passed = all(c.passed for c in checks)
    for c in checks:
        tag = "PASS" if c.passed else "FAIL"
        print(f"{tag}  {c.name}: {c.observed}  [require {c.requirement}]", file=sys.stderr)
    report = {
        "suite": args.suite,
        "m": args.m,
        "passed": passed,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "observed": c.observed,
                "requirement": c.requirement,
            }
            for c in checks
        ],
    }
    _write_out(json.dumps(report, sort_keys=True, indent=2), args.out)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qamseq",
        description="Construct, enumerate, and verify 16/64-QAM near-complementary "
        "OFDM sequence families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build one codeword from explicit parameters")
    p.add_argument("--m", type=int, default=None, help="inferred from --pi when omitted")
    p.add_argument("--modulation", choices=["16qam", "64qam"], required=True)
    p.add_argument("--pi", required=True, help="permutation, e.g. 0,1,2")
    p.add_argument("--c", required=True, help="linear coefficients plus constant, e.g. 1,1,1,0")
    p.add_argument("--offset", required=True, help="d1,d2,d3 or d1,d2,d3,h1,h3")
    p.add_argument("--oversample", type=int, default=16)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("enumerate", help="walk a whole family")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--modulation", choices=["16qam", "64qam"], required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--stream", action="store_true", help="acknowledge large families")
    p.add_argument("--oversample", type=int, default=16)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("ccdf", help="PMEPR exceedance curves: family vs random baseline")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--modulation", choices=["16qam", "64qam"], required=True)
    p.add_argument("--baseline-count", type=int, default=10000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--oversample", type=int, default=16)
    p.add_argument("--jobs", type=int, default=None, help="default from QAMSEQ_JOBS")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ccdf)

    p = sub.add_parser("verify", help="run oracle suites; exit 0 iff everything passes")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--suite", choices=["lemmas", "bounds", "examples", "all"], default="all")
    p.add_argument("--record", default=None, help="re-verify a stored codeword JSON file")
    p.add_argument("--oversample", type=int, default=16)
    p.add_argument("--jobs", type=int, default=None, help="default from QAMSEQ_JOBS")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 0) is None:
            # read QAMSEQ_JOBS up front, so a malformed value fails every suite
            args.jobs = default_jobs()
        return args.func(args)
    except (UsageError, OffsetConstraintError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
