#!/usr/bin/env python3
"""Run pgsi_ssn --report on a board and check the transient section a user
reads: exact sparse-factor work counts are present and consistent, and the
keys of the retired border split are gone. The report's spans must show the
cycle-basis extraction stages and none of the all-node dense passes it
replaced.

usage: check_ssn_report.py <pgsi_ssn> <board-file> <work-dir>
"""
import json
import os
import subprocess
import sys


def main():
    ssn, board, work = sys.argv[1:4]
    os.makedirs(work, exist_ok=True)
    report = os.path.join(work, "report.json")
    subprocess.run([ssn, board, "--report", report], check=True,
                   stdout=subprocess.DEVNULL)
    with open(report) as f:
        doc = json.load(f)
    transient = doc["sections"]["transient"]
    errors = []
    if not transient.get("lu_nnz", 0) > 0:
        errors.append("lu_nnz must be > 0")
    if not transient.get("factor_flops", 0) > 0:
        errors.append("factor_flops must be > 0")
    if not transient.get("lu_solves", -1) >= transient.get("steps", 0):
        errors.append("lu_solves must be >= steps")
    if not transient.get("lu_factorizations", 0) >= 1:
        errors.append("lu_factorizations must be >= 1")
    for gone in ("border_dim", "lti_factorizations"):
        if gone in transient:
            errors.append(gone + " must be absent")
    if errors:
        sys.exit("transient section %r: %s" % (transient, "; ".join(errors)))

    # Span paths are '/'-joined; match on the innermost span name.
    names = {s["path"].rsplit("/", 1)[-1] for s in doc["spans"]}
    for gone in ("bem.gamma", "bem.invert.potential"):
        if gone in names:
            errors.append("span %s must be absent" % gone)
    for stage in ("extract.loops", "extract.gamma", "extract.capacitance",
                  "extract.conductance"):
        if stage not in names:
            errors.append("span %s must be present" % stage)
    if errors:
        sys.exit("spans %s: %s" % (sorted(names), "; ".join(errors)))
    print("ok: transient report carries lu_nnz = %d, factor_flops = %d; "
          "extraction spans are the cycle-basis stages"
          % (transient["lu_nnz"], transient["factor_flops"]))


if __name__ == "__main__":
    main()
