"""Command-line surface: construct, enumerate, ccdf, verify.

Exit codes: 0 success, 1 verification failure, 2 usage or constraint error,
3 internal error (a fault in the library, reported with its traceback), 141
(128 + SIGPIPE) when the reader closes stdout before the output ends.
Records are emitted as self-describing JSON (symbols as exact integer
lattice pairs plus a scale tag, never floats); curves as CSV with 12
significant digits, each point an exact int64 count of records above its
threshold over the column's total (analysis.ccdf's counts, added run by
run and slice by slice).  Identical flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import Iterator

import numpy as np

from .analysis import (
    ccdf,
    default_threshold_grid,
    random_baseline,
    run_pmeprs,
    score_block,
    threshold_peps,
)
from .constructions import (
    ORBIT_SIZE,
    ConstructionParams,
    FamilyBlock,
    Modulation,
    Offset16,
    Offset64,
    OffsetKind,
    _map_cells,
    build,
    build_block,
    classify_offset64,
    count_enumerated,
    family_size,
    iter_family_chunks,
    orbit_offsets,
    orbit_runs,
    row_slices,
    star_bound,
)
from .gbf import PathQuadratic
from .verification import (
    CheckResult,
    example_regression,
    orbit_walk,
)

ENUMERATION_CAPS = {Modulation.QAM16: 4, Modulation.QAM64: 3}
# the largest m that construct builds and that a verify --record document
# may name (construct takes some 7 s and 3 GB at m = 13, most of it the n^2
# shift factors of the one-row correlation), and the largest envelope grid,
# oversample * n, of any subcommand: the default rate at that m
CONSTRUCT_M_LIMIT = RECORD_M_LIMIT = 13
GRID_LIMIT = 16 << CONSTRUCT_M_LIMIT
# the most symbols, count * n, of ccdf's random baseline, whose Z4 draws
# are held at once (up to three bytes a symbol): above the default 10 000
# rows at m = 13
BASELINE_LIMIT = 1 << 27

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141


class UsageError(Exception):
    pass


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"{what}: expected comma-separated integers, got {text!r}") from exc


def _check_grid(m: int, oversample: int) -> None:
    if oversample > GRID_LIMIT >> m:
        raise UsageError(
            f"oversample * n = {oversample} * 2^{m} exceeds the grid limit {GRID_LIMIT}")


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
    h = {"h1": offset.h1, "h2": offset.h2, "h3": offset.h3}
    return {"kind": offset.kind.value, **_offset_doc(offset.d), **h}


def _offset_from_doc(doc: dict):
    d = Offset16(doc["d1"], doc["d2"], doc["d3"]).validate()
    if "kind" not in doc:
        return d
    return Offset64(OffsetKind(doc["kind"]), d, doc["h1"], doc["h2"], doc["h3"]).validate()


def _z4_texts(digits: np.ndarray) -> np.ndarray:
    """JSON texts "[d, d, ...]" of the Z4 lists along the last axis: 3n wide, so made at once."""
    chars = np.full((*digits.shape[:-1], 3 * digits.shape[-1]), ord(" "), np.uint32)
    chars[..., 0], chars[..., 2::3], chars[..., 1::3] = ord("["), ord(","), digits + ord("0")
    chars[..., -1] = ord("]")
    return chars.view(f"U{chars.shape[-1]}")[..., 0].astype(object)


# the JSON text [re, im] of each lattice pair (odd parts), at 8 * (re + 7) / 2 + (im + 7) / 2
_PAIR_TEXTS = np.array([f"[{a}, {b}]" for a in range(-7, 8, 2) for b in range(-7, 8, 2)], object)


def codeword_lines(block: FamilyBlock, oversample: int) -> Iterator[str]:
    """The lines json.dumps(doc, sort_keys=True) + "\\n" of the codewords of a
    block of iter_family_chunks or of a one-row block, in grid order (row,
    then offset), one text per slice of rows.  A line is its offset's document
    split at a null per Z4 list, symbol pair, constant and score, and joined
    by their texts: lists written whole, pairs and constants read from tables,
    scores' reprs made once per distinct value in the block.  Each orbit is
    scored once, on its first row: zeta^c rotates a codeword exactly, so its
    records share star and PMEPR bit for bit."""
    m, scale, sign = block.m, block.scale.value, block.companion_sign
    n, grid = 1 << m, (len(block.coeffs), len(block.offsets))
    star, pmepr = (v.T for v in score_block(block.select(slice(None, None, ORBIT_SIZE)), oversample))
    scores = {}
    for key, value in (("star", star), ("star_over_n", star / n), ("pmepr", pmepr)):
        unique, index = np.unique(np.repeat(value, ORBIT_SIZE, 0)[: grid[0]], return_inverse=True)
        scores[key] = np.array([repr(v) for v in unique.tolist()], object)[index].reshape(*grid, 1)
    modulation = Modulation.QAM16 if isinstance(block.offsets[0], Offset16) else Modulation.QAM64
    skeletons = np.array([(json.dumps({
        "format": "qamseq-codeword", "m": m, "n": n, "modulation": modulation.value,
        "pi": list(block.pi), "offset": _offset_doc(offset), "oversample": oversample,
        "scale_denominator": scale, **dict.fromkeys(("base", "linear", "constant", *scores)),
        "components": [None] * (block.component_index.shape[1] - 1),
        **dict.fromkeys(("symbols", "primed_symbols"), [None] * n),
    }, sort_keys=True) + "\n").split("null") for offset in block.offsets], dtype=object)
    # a slice's texts take some 8 to 13 times the 16 bytes of its complex symbols:
    # an 8th of the block's symbols holds about as much memory as the block
    for part in row_slices(grid[0], 8 * n * grid[1]):
        rows = block.select(part)
        lists, z = _z4_texts(rows.components), rows.symbols
        parts = (np.stack([z, z * sign]).view(float).astype(np.int8) + 7) // 2  # re, im, re, ...
        pairs = _PAIR_TEXTS[parts[..., 0::2] * 8 + parts[..., 1::2]].swapaxes(1, 2)
        texts = {  # of every field that varies by row, over (rows, offsets, texts)
            "base+components": lists[block.component_index].transpose(2, 0, 1),  # D, E or D, F, G
            "constant": np.array(list("0123"), object)[rows.coeffs[:, m], None, None],
            "linear": _z4_texts(rows.coeffs[:, :m])[:, None, None], "symbols": pairs[0],
            "primed_symbols": pairs[1], **{k: v[part] for k, v in scores.items()}}
        lines = np.empty((*pairs.shape[1:3], 2 * skeletons.shape[1] - 1), dtype=object)
        lines[..., 0::2], col = skeletons, 1
        for key in sorted(texts):
            lines[..., col : col + 2 * texts[key].shape[2] : 2] = texts[key]
            col += 2 * texts[key].shape[2]
        yield "".join(lines.ravel().tolist())


def codeword_doc(params: ConstructionParams, oversample: int = 16) -> dict:
    """The JSON document of one codeword: the line codeword_lines renders for
    its one-row block, parsed."""
    return json.loads(next(codeword_lines(build(params), oversample)))


def params_from_doc(doc: dict) -> ConstructionParams:
    base = PathQuadratic(doc["m"], tuple(doc["pi"]), tuple(doc["linear"]), doc["constant"])
    return ConstructionParams(base=base, offset=_offset_from_doc(doc["offset"]))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(_is_int(v) for v in value)


_INT = (_is_int, "an integer")
_INT_LIST = (_is_int_list, "a list of integers")

_OFFSET_KEYS = ({"d1", "d2", "d3"}, {"d1", "d2", "d3", "h1", "h2", "h3", "kind"})
# the fields a codeword is rebuilt from, the offset's as "offset.<name>":
# (shape test, what the shape is)
_FIELD_SHAPES = {
    "m": (lambda v: _is_int(v) and 2 < v <= RECORD_M_LIMIT, f"an integer in [3, {RECORD_M_LIMIT}]"),
    "pi": _INT_LIST,
    "linear": _INT_LIST,
    "constant": _INT,
    "offset": (lambda v: isinstance(v, dict) and set(v) in _OFFSET_KEYS,
               "an object with the keys d1, d2, d3 (16qam) or those and h1, h2, h3, kind (64qam)"),
    **{f"offset.{key}": _INT for key in ("d1", "d2", "d3", "h1", "h2", "h3")},
    "oversample": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
}
# their top-level keys, each of which a record must have
_BUILD_KEYS = tuple(dict.fromkeys(key.split(".")[0] for key in _FIELD_SHAPES))


def _exact(value) -> str:
    """A value's JSON text: equal texts mean equal values of equal type."""
    return json.dumps(value, sort_keys=True)


def verify_codeword_doc(doc: dict) -> list[str]:
    """Rebuild the whole document from its parameters and compare every field
    exactly, one problem per field that is missing, extra or different.

    The fields it is rebuilt from are type-checked first, and m and the
    envelope grid held to RECORD_M_LIMIT and GRID_LIMIT, so nothing is built
    from a field of the wrong type or size. The star/n ceiling verdict is
    read from the rebuilt document, never from the record's own numbers."""
    if not isinstance(doc, dict):
        return ["unparseable parameters: the record is not a JSON object"]
    fields = dict(doc)
    if isinstance(doc.get("offset"), dict):
        fields.update((f"offset.{key}", value) for key, value in doc["offset"].items())
    problems = [f"record has no {key!r}" for key in _BUILD_KEYS if key not in doc]
    problems += [
        f"record field {key!r} is not {what}"
        for key, (fits, what) in _FIELD_SHAPES.items()
        if key in fields and not fits(fields[key])
    ]
    if not problems and doc["oversample"] > GRID_LIMIT >> doc["m"]:
        problems = [f"record field 'oversample' times n = 2^{doc['m']} exceeds {GRID_LIMIT}"]
    if problems:
        return problems
    try:
        params = params_from_doc(doc)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unparseable parameters: {exc}"]
    rate = doc["oversample"]
    expected = codeword_doc(params, oversample=rate)
    problems = [f"record has no {key!r}" for key in expected if key not in doc]
    for key, value in doc.items():
        if key not in expected:
            problems.append(f"record field {key!r} is not a codeword field")
        elif _exact(value) != _exact(expected[key]):
            # the PMEPR is the one field regenerated at the record's own rate
            at = f" at 'oversample' {rate}" if key == "pmepr" else ""
            problems.append(f"record field {key!r} is not its regenerated value{at}")
    bound = star_bound(params.offset)
    if expected["star_over_n"] > bound:
        problems.append(f"star/n = {expected['star_over_n']} exceeds bound {bound}")
    return problems


def _record_csv_lines(doc: dict) -> list[str]:
    lines = [f"# {key}={json.dumps(doc[key], sort_keys=True)}" for key in (
        "m", "n", "modulation", "pi", "linear", "constant", "offset",
        "scale_denominator", "star", "pmepr",
    )]
    comps = doc["components"]
    comp_names = ["component1"] if len(comps) == 1 else ["component1", "component2"]
    lines.append(",".join(["index", "base", *comp_names, "re", "im", "primed_re", "primed_im"]))
    for i, pair, primed in zip(range(doc["n"]), doc["symbols"], doc["primed_symbols"]):
        row = [i, doc["base"][i], *(c[i] for c in comps), *pair, *primed]
        lines.append(",".join(str(v) for v in row))
    return lines


def _open_out(out: str | None):
    """The output stream: stdout for None or "-", else the file, truncated."""
    if out in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write --out {out}: {exc.strerror}") from exc


def _write_out(text: str, out: str | None) -> None:
    with _open_out(out) as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def cmd_construct(args) -> int:
    modulation = Modulation(args.modulation)
    pi = tuple(_parse_int_list(args.pi, "--pi"))
    coeffs = _parse_int_list(args.c, "--c")
    m = len(pi)
    if m > CONSTRUCT_M_LIMIT:
        raise UsageError(f"m={m} exceeds the construct limit m <= {CONSTRUCT_M_LIMIT}")
    _check_grid(m, args.oversample)
    if args.m is not None and args.m != m:
        raise UsageError(f"--m {args.m} disagrees with --pi of length {m}")
    if len(coeffs) != m + 1:
        raise UsageError(f"--c needs {m} linear coefficients plus the constant")
    try:  # an offset that breaks its congruences, a bad permutation or m <= 2
        offset = _parse_offset(_parse_int_list(args.offset, "--offset"), modulation)
        base = PathQuadratic(m=m, pi=pi, linear=tuple(coeffs[:m]), constant=coeffs[m])
        params = ConstructionParams(base=base, offset=offset)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    doc = codeword_doc(params, oversample=args.oversample)
    if args.format == "json":
        _write_out(json.dumps(doc, sort_keys=True, indent=2), args.out)
    else:
        _write_out("\n".join(_record_csv_lines(doc)), args.out)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    modulation = Modulation(args.modulation)
    cap = ENUMERATION_CAPS[modulation]
    if args.m > cap and not args.stream:
        raise UsageError(
            f"m={args.m} exceeds the default cap {cap} for {modulation.value}; "
            f"pass --stream to acknowledge the family size {family_size(args.m, modulation)}"
        )
    if args.count_only:
        closed = family_size(args.m, modulation)
        enumerated = count_enumerated(args.m, modulation)
        doc = {"m": args.m, "modulation": modulation.value, "closed_form": closed,
               "enumerated": enumerated, "match": closed == enumerated}
        _write_out(json.dumps(doc, sort_keys=True), args.out)
        return EXIT_OK if doc["match"] else EXIT_VERIFY_FAILED

    with _open_out(args.out) as fh:
        for block in iter_family_chunks(args.m, modulation):
            fh.writelines(codeword_lines(block, args.oversample))
    return EXIT_OK


def _family_run(run: list, m: int, offsets: tuple, oversample: int, thresholds) -> dict:
    """analysis.ccdf counts of each offset kind of a run of orbit_runs at the
    thresholds, from analysis.run_pmeprs over a block of the offsets per pi
    with no group maxima: a curve reads only the records above each
    threshold."""
    blocks = [[build_block(m, pi, offsets, rows)] for pi, rows in run]
    return {kind: ccdf(values, thresholds, records) for kind, (values, records, _)
            in run_pmeprs(blocks, oversample, thresholds, maxima=False).items()}


def family_pmeprs(
    m: int, modulation: Modulation, thresholds, oversample: int = 16, jobs: int = 1
) -> dict[str, np.ndarray]:
    """The oversampled PMEPRs of the family as int64 counts per offset kind,
    analysis.ccdf's: the kind's records, then its records strictly above
    each of the ascending thresholds, those of a walk over every record.
    Each run of orbit_runs under orbit_offsets(modulation) is counted by
    one analysis.run_pmeprs call and added as it comes, so no run's PMEPRs
    outlive it (a worker of jobs > 1 sends back only its counts)."""
    counts: dict[str, np.ndarray] = {}
    offsets = orbit_offsets(modulation)
    count = functools.partial(_family_run, m=m, offsets=offsets, oversample=oversample,
                              thresholds=np.asarray(thresholds, dtype=float))
    for run_counts in _map_cells(count, orbit_runs(m, (1 << m) * len(offsets)), jobs):
        for kind, run_count in run_counts.items():
            counts[kind] = counts.get(kind, 0) + run_count
    return counts


def cmd_ccdf(args) -> int:
    modulation = Modulation(args.modulation)
    if args.baseline_count < 1 or args.seed < 0:
        raise UsageError(f"baseline count must be >= 1 and seed >= 0, got "
                         f"{args.baseline_count} and {args.seed}")
    if args.baseline_count > BASELINE_LIMIT >> args.m:
        raise UsageError(f"baseline count * n = {args.baseline_count} * 2^{args.m} exceeds the "
                         f"baseline limit {BASELINE_LIMIT}")
    n = 1 << args.m
    thresholds = default_threshold_grid()
    by_kind = family_pmeprs(args.m, modulation, thresholds, args.oversample, args.jobs)
    counts = {"constructed": sum(by_kind.values())}
    if modulation is Modulation.QAM64:
        counts.update(type1=by_kind["type1"], type2=by_kind["type2"])
    baseline = random_baseline(n, modulation, args.baseline_count, args.seed)
    counts["baseline"] = sum(ccdf(threshold_peps(z, args.oversample, thresholds) / n, thresholds)
                             for z in baseline)
    curves = {f"ccdf_{name}": c[1:] / c[0] for name, c in counts.items()}

    names = list(curves)
    lines = [
        f"# qamseq ccdf m={args.m} modulation={modulation.value} "
        f"baseline_count={args.baseline_count} seed={args.seed} oversample={args.oversample}",
        ",".join(["threshold_linear", "threshold_db", *names]),
    ]
    for idx, thr in enumerate(thresholds):
        row = [thr, 10 * np.log10(thr), *(curves[name][idx] for name in names)]
        lines.append(",".join(f"{value:.12g}" for value in row))
    _write_out("\n".join(lines), args.out)
    return EXIT_OK


def _suite_checks(args) -> list[CheckResult]:
    checks = example_regression(args.oversample) if args.suite in ("examples", "all") else []
    if args.suite != "examples":
        # one orbit walk gives the lemma sweep and both bound audits, whose
        # PMEPR verdicts read the star, not a sample: the envelope kernel's
        # self-test (verification.envelope_audit) is left to the tests
        bounds = args.suite != "lemmas"
        audits, lemmas = orbit_walk(args.m, args.oversample if bounds else None, args.jobs)
        checks += lemmas.checks() if args.suite != "bounds" else []
        checks += [check for report in audits for check in report.checks()]
    return checks


def cmd_verify(args) -> int:
    if args.record is not None:
        try:
            with open(args.record, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read --record {args.record}: {exc.strerror}") from exc
        except ValueError as exc:  # not UTF-8 text, or not JSON
            raise UsageError(f"cannot parse --record {args.record}: {exc}") from exc
        problems = verify_codeword_doc(doc)
        report = {"record": args.record, "passed": not problems, "problems": problems}
        _write_out(json.dumps(report, sort_keys=True, indent=2), args.out)
        return EXIT_OK if not problems else EXIT_VERIFY_FAILED

    checks = _suite_checks(args)
    passed = all(c.passed for c in checks)
    for c in checks:
        tag = "PASS" if c.passed else "FAIL"
        print(f"{tag}  {c.name}: {c.observed}  [require {c.requirement}]", file=sys.stderr)
    report = {"suite": args.suite, "m": args.m, "passed": passed,
              "checks": [vars(c) for c in checks]}
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
    p.add_argument("--jobs", type=int, default=1, help="worker processes for the family walk")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ccdf)

    p = sub.add_parser("verify", help="run oracle suites; exit 0 iff everything passes")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--suite", choices=["lemmas", "bounds", "examples", "all"], default="all")
    p.add_argument("--record", default=None, help="re-verify a stored codeword JSON file")
    p.add_argument("--oversample", type=int, default=16)
    p.add_argument("--jobs", type=int, default=1, help="worker processes for the orbit walk")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise UsageError(f"worker count (--jobs) must be >= 1, got {args.jobs}")
        if args.m is not None and args.m <= 2:
            raise UsageError(f"family defined for m > 2, got m={args.m}")
        if args.oversample < 1:
            raise UsageError(f"oversample must be >= 1, got {args.oversample}")
        if args.m is not None:
            _check_grid(args.m, args.oversample)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # stdout's reader left: its flush at exit goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except Exception as exc:  # a fault in the library, not in the command line
        # imported here: only this branch needs it, and nothing else loads it
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
