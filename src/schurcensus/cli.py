"""Command-line front end.

Seven subcommands cover the pipeline end to end: verify a partition's
Schur ring, evaluate the non-schurian prediction, print structure
constants, run the schurian oracle, compute the invariant slopes of a
linear map, cross-validate prediction against oracle over a whole field,
and tabulate the prediction census.

Each subcommand returns its report, a plain document or one of the two
tables, and ``main`` emits it once through ``emit_report``, the only code
that knows a table's layout.  Reports are emitted as canonical bytes so
repeated runs diff clean: JSON is sorted-key with two-space indent and a
trailing newline, TSV has a fixed documented column order.  Both formats
take the two tables, which hold columns: their TSV is rendered from the
columns with numpy, a block of rows at a time, with no string or tuple
built per row, and their JSON decodes the text column.  Group orders are
serialized as decimal strings; they overflow 64-bit integers as early as
the rank-2 scheme on 5^2 points.

Exit status is 0 on success, 1 when a verification claim fails (a failed
axiom check, an inconsistent schurian-test, a cross-validation
contradiction) or a cross-validate worker process dies (WorkerError), and
2 for usage, parse, and sizing problems.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from .analysis import (
    NO_PREDICTION,
    NON_SCHURIAN,
    PREDICTS_NONSCHURIAN,
    SCHURIAN,
    Census,
    CrossValidation,
    analyze_partition,
    census,
    coerce_matrix,
    cross_validate,
    invariant_slopes,
    nonschurian_criterion,
)
from .errors import InconsistencyError, PartitionFormatError, WorkerError
from .gf import Field, field_from_literal
from .lines import (
    BLOCK_ROWS,
    LinePartition,
    load_partition,
    partition_to_json_dict,
    singleton_slopes,
    slope_literal,
)
from .perms import DEFAULT_ORACLE_CAP
from .schur import SchurBasis, structure_constants, verify_line_sum_identities, \
    verify_schur_axioms

TABLE_COMMANDS = ("census", "cross-validate")


# ---------------------------------------------------------------------------
# canonical emission
# ---------------------------------------------------------------------------

def emit_report(report, fmt: str = "json") -> bytes | bytearray:
    """Serialize a report deterministically.

    Both formats take the two tables; JSON also takes any plain document.
    This is the one place that knows a table's layout: the cells after a
    row's partition are one of a few suffixes, picked by ``suffix_of``,
    and both formats render those.  JSON is byte-stable because keys are
    sorted; a table's document holds the field's provenance, the counts
    and one row per partition.

    TSV rows are rendered from the table's columns ``lines.BLOCK_ROWS`` at
    a time: each row is its text bytes followed by its suffix, each suffix
    rendered once and zero-padded.  A block is one ``np.take`` of whole
    rows, suffixes included, with the texts written into it, and dropping
    the zero bytes, in one ``bytes.translate`` per block, leaves the lines
    back to back.  They go into one growing bytearray, which is returned
    as it is, so the report exists once, and never also as a list of
    lines, one joined string or a second copy as bytes.
    """
    if fmt not in ("json", "tsv"):
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(report, Census):
        counts = dict(total=report.total, predicted_nonschurian=report.predicted)
        columns = ("criterion_verdict",)
        cells = [(_verdict(predicts),) for predicts in (False, True)]

        def suffix_of(rows: slice) -> np.ndarray:
            return report.predicts[rows].astype(np.intp)
    elif isinstance(report, CrossValidation):
        counts = dict(scope=report.scope, total=report.total,
                      predicted_nonschurian=report.predicted_nonschurian,
                      predicted_schurian=report.predicted_schurian,
                      unpredicted_nonschurian=report.unpredicted_nonschurian,
                      unpredicted_schurian=report.unpredicted_schurian)
        columns = ("criterion_verdict", "oracle_verdict", "aut_order")
        # one suffix per (orbit, prediction): the orbit fixes the oracle
        # verdict and |Aut|
        cells = [(_verdict(predicts), _oracle(schurian), str(aut_order))
                 for schurian, aut_order in zip(report.orbit_schurian.tolist(),
                                                report.aut_orders)
                 for predicts in (False, True)]

        def suffix_of(rows: slice) -> np.ndarray:
            return report.orbit[rows].astype(np.intp) * 2 + report.predicts[rows]
    elif fmt == "tsv":
        raise ValueError(f"no tsv rendering for {type(report).__name__}")
    else:
        return _json(report)
    if fmt == "json":
        templates = [dict(zip(columns, row)) for row in cells]
        rows = [dict(templates[k], partition=text) for text, k in zip(
            report.texts.astype(str).tolist(), suffix_of(slice(None)).tolist())]
        return _json(dict(_provenance(field_from_literal(report.field)),
                          **counts, rows=rows))
    texts = np.ascontiguousarray(report.texts)
    width = texts.itemsize
    # each suffix behind a run of zeros as wide as a text: one gather makes
    # the whole block, and the texts are written over the runs
    tails = np.array([bytes(width) + "".join(f"\t{cell}" for cell in row).encode("utf-8")
                      + b"\n" for row in cells], dtype=bytes)
    tails = tails.view(np.uint8).reshape(len(tails), tails.itemsize)
    out = bytearray("\t".join(("partition", *columns)).encode("utf-8") + b"\n")
    for start in range(0, len(texts), BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        block = np.take(tails, suffix_of(rows), axis=0)
        block[:, :width] = texts[rows].view(np.uint8).reshape(-1, width)
        out += block.tobytes().translate(None, b"\0")
    return out


def _json(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _verdict(predicts: bool) -> str:
    return PREDICTS_NONSCHURIAN if predicts else NO_PREDICTION


def _oracle(schurian: bool) -> str:
    return SCHURIAN if schurian else NON_SCHURIAN


def _provenance(field: Field) -> dict:
    # modulus coefficients run constant term first; the element with
    # index p is the residue of x, the chosen generator
    return {"field": field.literal, "modulus": list(field.modulus)}


def _partition_doc(pi: LinePartition) -> list[list[str]]:
    return partition_to_json_dict(pi)["classes"]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify_schur_ring(args) -> tuple[dict, int]:
    pi = load_partition(args.partition)
    axioms = verify_schur_axioms(SchurBasis.from_partition(pi))
    identities = verify_line_sum_identities(pi)
    ok = axioms.ok and identities.ok
    doc = dict(_provenance(pi.field),
               partition=_partition_doc(pi),
               schur_axioms_ok=axioms.ok,
               line_identities_ok=identities.ok,
               failures=list(axioms.failures) + list(identities.failures),
               ok=ok)
    return doc, 0 if ok else 1


def _cmd_check_condition(args) -> tuple[dict, int]:
    pi = load_partition(args.partition)
    report = nonschurian_criterion(pi)
    doc = dict(_provenance(pi.field),
               partition=_partition_doc(pi),
               singleton_slopes=[slope_literal(pi.field, s)
                                 for s in sorted(singleton_slopes(pi))],
               condition_holds=report.holds,
               criterion_verdict=_verdict(report.holds),
               normalized_partition=(None if report.normalized is None
                                     else _partition_doc(report.normalized)),
               normalized_condition_holds=report.normalized_holds,
               witness_matrix=(None if report.matrix is None
                               else [list(row) for row in report.matrix]))
    return doc, 0


def _cmd_structure_constants(args) -> tuple[dict, int]:
    pi = load_partition(args.partition)
    basis = SchurBasis.from_partition(pi)
    tensor = structure_constants(basis)
    doc = dict(_provenance(pi.field),
               partition=_partition_doc(pi),
               rank=len(basis.blocks),
               class_sizes=[len(block) for block in basis.blocks],
               tensor=tensor.tolist())
    return doc, 0


def _cmd_schurian_test(args) -> tuple[dict, int]:
    pi = load_partition(args.partition)
    report = analyze_partition(pi, oracle_cap=args.oracle_cap)
    doc = dict(_provenance(pi.field),
               partition=_partition_doc(pi),
               scheme_rank=report.scheme_rank,
               aut_order=str(report.aut_order),
               stabilizer_orbit_sizes=list(report.stabilizer_orbit_sizes),
               class_sizes=list(report.class_sizes),
               oracle_verdict=report.oracle_verdict,
               criterion_verdict=report.criterion_verdict,
               consistent=report.consistent)
    return doc, 0 if report.consistent else 1


def _cmd_invariant_slopes(args) -> tuple[dict, int]:
    field = field_from_literal(args.field)
    matrix = _load_matrix(args.partition, field)
    fixed = sorted(invariant_slopes(field, matrix))
    doc = dict(_provenance(field),
               matrix=matrix.tolist(),
               invariant_slopes=[slope_literal(field, s) for s in fixed],
               count=len(fixed))
    return doc, 0


def _cmd_cross_validate(args) -> tuple[CrossValidation, int]:
    return cross_validate(field_from_literal(args.field), oracle_cap=args.oracle_cap,
                          workers=args.workers), 0


def _cmd_census(args) -> tuple[Census, int]:
    return census(field_from_literal(args.field)), 0


def _load_matrix(path: str, field: Field):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise PartitionFormatError(f"{path}: not valid JSON: {exc}") from None
        except RecursionError:
            raise PartitionFormatError(
                f"{path}: not valid JSON: nested too deeply") from None
    if not isinstance(data, dict) or "matrix" not in data:
        raise PartitionFormatError(
            f"{path}: expected a JSON object with a 'matrix' key")
    if extra := set(data) - {"field", "matrix"}:
        raise PartitionFormatError(f"{path}: unknown keys {sorted(extra)} in matrix file")
    if "field" in data and data["field"] != field.literal:
        raise PartitionFormatError(
            f"{path}: file names field {data['field']!r} but --field "
            f"says {field.literal!r}")
    return coerce_matrix(field, data["matrix"])


_HANDLERS = {
    "verify-schur-ring": _cmd_verify_schur_ring,
    "check-condition": _cmd_check_condition,
    "structure-constants": _cmd_structure_constants,
    "schurian-test": _cmd_schurian_test,
    "invariant-slopes": _cmd_invariant_slopes,
    "cross-validate": _cmd_cross_validate,
    "census": _cmd_census,
}


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schur-census",
        description="Schur rings over F_q^2 from line partitions: "
                    "verification, schurian oracle, and census.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, help_text, *, field=False, partition=None, oracle=False,
                workers=False):
        cmd = sub.add_parser(name, help=help_text, description=help_text)
        if field:
            cmd.add_argument("--field", required=True, metavar="p^e",
                             help="field literal such as 5^1 or 3^2")
        if partition:
            cmd.add_argument("--partition", required=True, metavar="FILE",
                             help=partition)
        if oracle:
            cmd.add_argument("--oracle-cap", type=int, metavar="N",
                             default=DEFAULT_ORACLE_CAP,
                             help="largest point count the oracle will accept "
                                  f"(default {DEFAULT_ORACLE_CAP})")
        if workers:
            cmd.add_argument("--workers", type=int, metavar="N", default=None,
                             help="worker processes (default: the CPUs "
                                  "this process may use; 1 runs the "
                                  "oracle in this process)")
        cmd.add_argument("--format", choices=("json", "tsv"), default="json",
                         help="output format (tsv only for the table commands)")
        cmd.add_argument("--output", metavar="PATH", default=None,
                         help="write the report here instead of stdout")
        return cmd

    partition_help = "partition file: " \
                     '{"field": "5^1", "classes": [["inf"], ["0"], ...]}'
    command("verify-schur-ring",
            "check the Schur ring axioms and the closed product formulas "
            "for a partition's class sums",
            partition=partition_help)
    command("check-condition",
            "evaluate the non-schurian prediction on a partition, as given "
            "and after moving its three least singleton slopes to 0, 1, inf",
            partition=partition_help)
    command("structure-constants",
            "print the full structure constant tensor of a partition's "
            "Schur ring",
            partition=partition_help)
    command("schurian-test",
            "decide schurianness by automorphism group oracle and compare "
            "with the prediction",
            partition=partition_help, oracle=True)
    command("invariant-slopes",
            "list the lines a linear map carries onto themselves",
            field=True,
            partition='matrix file: {"matrix": [[...]]} with rows over F_p')
    command("cross-validate",
            "run prediction and oracle over every partition of a field's "
            "slopes and tabulate the verdict pairs",
            field=True, oracle=True, workers=True)
    command("census",
            "tabulate the prediction over every partition of a field's "
            "slopes (no oracle runs)",
            field=True)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.format == "tsv" and args.command not in TABLE_COMMANDS:
        print("error: tsv output is only available for census and "
              "cross-validate", file=sys.stderr)
        return 2
    cap = getattr(args, "oracle_cap", None)
    if cap is not None and cap <= 0:
        print("error: --oracle-cap must be positive", file=sys.stderr)
        return 2

    try:
        report, code = _HANDLERS[args.command](args)
        data = emit_report(report, args.format)
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 1
    except WorkerError as exc:  # a cross-validate worker died
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, OSError) as exc:
        # covers parse errors, sizing errors, bad literals, unreadable files
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.output is not None:
            with open(args.output, "wb") as handle:
                handle.write(data)
        elif hasattr(sys.stdout, "buffer"):
            # the bytes as they are: decoding them would copy the report twice
            sys.stdout.flush()
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
        else:  # a text stream with no bytes beneath it, such as io.StringIO
            sys.stdout.write(data.decode("utf-8"))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
