"""Exact response checks, each by a route independent of the one that
produced the response.

Every checker takes the job and one Response per CLI invocation and
returns None when the response is right, or a one-line reason otherwise.
A wrong exit code, a failed exact check and a request killed at the
per-request cap are all failures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Response:
    returncode: int
    stdout: str
    timed_out: bool = False


def _exit_ok(responses) -> str | None:
    for r in responses:
        if r.timed_out:
            return "killed at the per-request time cap"
        if r.returncode != 0:
            return f"exit code {r.returncode}, expected 0"
    return None


def check_genus(job, responses) -> str | None:
    """Both genus routes ran and the CLI reports exact agreement."""
    lines = responses[0].stdout.splitlines()
    if not lines or lines[-1] != "routes agree: yes":
        return f"genus routes disagree: {lines[-1] if lines else '(no output)'}"
    return None


def check_relations(job, responses) -> str | None:
    """One relation line per weight, each verified as a q-series."""
    lines = [l for l in responses[0].stdout.splitlines() if l.startswith("k=")]
    if len(lines) != job.expect["lines"]:
        return f"{len(lines)} relation lines, expected {job.expect['lines']}"
    mark = f"[verified to q^{job.expect['prec']}]"
    for line in lines:
        if not line.endswith(mark):
            return f"unverified relation: {line}"
    return None


def check_lemma(job, responses) -> str | None:
    """The lemma a_k = G_{k,N}: the Fourier-side series from `eisenstein`
    must equal coefficient a_k of the product expansion from `qn`."""
    k = job.expect["k"]
    try:
        fourier = json.loads(responses[0].stdout)["series"]
        coeffs = json.loads(responses[1].stdout)["coeffs"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable JSON: {exc}"
    product = dict((int(j), s) for j, s in coeffs).get(k)
    if product != fourier:
        return f"a_{k} from qn != G[{k},N] from eisenstein"
    return None


def check_coadjoint(job, responses) -> str | None:
    """Every divided-difference vs localization crosscheck is [ok], and
    there is one per partition I with n <= |I| <= n + extra."""
    lines = [l for l in responses[0].stdout.splitlines() if "divided-difference" in l]
    if len(lines) != job.expect["checks"]:
        return f"{len(lines)} crosschecks, expected {job.expect['checks']}"
    for line in lines:
        if not line.endswith("[ok]"):
            return f"crosscheck mismatch: {line.strip()}"
    return None


def check_selftest(job, responses) -> str | None:
    """Ten PASS lines and no FAIL."""
    lines = responses[0].stdout.splitlines()
    passes = sum(1 for l in lines if l.startswith("PASS"))
    if passes != 10 or any(l.startswith("FAIL") for l in lines):
        return f"{passes} of 10 criteria passed"
    return None


CHECKERS = {"genus": check_genus, "relations": check_relations,
            "lemma": check_lemma, "coadjoint": check_coadjoint,
            "selftest": check_selftest}


def check(job, responses) -> str | None:
    """None if every invocation of `job` exited 0 and its output is right."""
    return _exit_ok(responses) or CHECKERS[job.kind](job, responses)
