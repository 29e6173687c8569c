#!/usr/bin/env python3
"""Run pgsi_batch on a one-job campaign whose id needs JSON escaping and
check that the --out results file parses and carries the id unchanged.

usage: check_batch_out.py <pgsi_batch> <board-file> <work-dir>
"""
import json
import os
import subprocess
import sys

JOB_ID = 'a"b\\c\tq'


def main():
    batch, board, work = sys.argv[1:4]
    os.makedirs(work, exist_ok=True)
    jobs = os.path.join(work, "jobs.json")
    out = os.path.join(work, "results.json")
    with open(jobs, "w") as f:
        json.dump({"schema": "pgsi.jobs/1",
                   "jobs": [{"id": JOB_ID, "type": "sweep",
                             "board_file": os.path.abspath(board),
                             "fmin": 1e7, "fmax": 1e8, "points": 2}]}, f)
    subprocess.run([batch, jobs, "--out", out], check=True,
                   stdout=subprocess.DEVNULL)
    with open(out) as f:
        results = json.load(f)
    ids = [job["id"] for job in results["jobs"]]
    if ids != [JOB_ID]:
        sys.exit(f"job ids {ids!r} != [{JOB_ID!r}]")
    print("ok: --out parses and round-trips the job id")


if __name__ == "__main__":
    main()
