"""The benchmark's response checker counts wrong answers as failures.

Responses are real CLI output, made in-process, then altered the way a
broken program would alter them.  Run with the package on the path:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import contextlib
import io
import json

from check import Response
from run import Tally
from workloads import Job, cpn_data, decks, partition_count

from genus_forge.cli import main as cli_main
from genus_forge.symfunc import partitions_at_most


def cli(*argv) -> Response:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(argv))
    return Response(code, out.getvalue())


def lemma_job(k=2, level=3, prec=8):
    job = Job("lemma", (("eisenstein", str(k), str(level), "--json", "--prec", str(prec)),
                        ("qn", str(level), "--x-order", str(k + 1), "--json",
                         "--prec", str(prec))), {"k": k})
    return job, [cli(*argv) for argv in job.argvs]


def test_lemma_pair_passes_and_a_changed_coefficient_fails():
    job, (fourier, product) = lemma_job()
    tally = Tally()
    assert tally.add(job, [fourier, product], ["", ""])
    payload = json.loads(product.stdout)
    series = payload["coeffs"][2][1]
    exponent, value = series["coeffs"][1]
    series["coeffs"][1] = [exponent, value + " + 1"]
    changed = Response(0, json.dumps(payload))
    assert not tally.add(job, [fourier, changed], ["", ""])
    assert (tally.attempted, tally.failed, tally.wrong) == (4, 2, True)
    assert "a_2 from qn" in tally.first_failure


def test_genus_routes_disagreeing_fails(tmp_path):
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(cpn_data(2, [1, 3])))
    job = Job("genus", (("genus", str(path), "3", "--prec", "6"),))
    good = cli(*job.argvs[0])
    tally = Tally()
    assert good.stdout.endswith("routes agree: yes\n")
    assert tally.add(job, [good], [""])
    bad = Response(0, good.stdout.replace("routes agree: yes", "routes agree: NO"))
    assert not tally.add(job, [bad], [""])
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, True)


def test_wrong_exit_code_and_timeout_fail():
    job, responses = lemma_job()
    tally = Tally()
    exited_1 = Response(1, responses[1].stdout)
    assert not tally.add(job, [responses[0], exited_1], ["", ""])
    assert "exit code 1" in tally.first_failure
    killed = Response(-9, "", timed_out=True)
    assert not tally.add(job, [responses[0], killed], ["", ""])
    assert (tally.attempted, tally.failed) == (4, 4)


def test_timeout_alone_is_a_failure_but_not_a_wrong_answer():
    job, responses = lemma_job()
    tally = Tally()
    assert not tally.add(job, [responses[0], Response(-9, "", timed_out=True)], ["", ""])
    assert (tally.failed, tally.wrong) == (2, False)


def test_relation_and_crosscheck_lines_must_all_be_verified():
    relations = Job("relations", (("relations",),), {"lines": 2, "prec": 15})
    ok = "k=2: x = 0   [verified to q^15]\nk=3: y = 0   [verified to q^15]\n"
    tally = Tally()
    assert tally.add(relations, [Response(0, ok)], [""])
    assert not tally.add(relations, [Response(0, ok.replace(
        "[verified to q^15]\nk=3", "[FAILED: residual q]\nk=3"))], [""])
    coadjoint = Job("coadjoint", (("coadjoint",),), {"checks": 2})
    lines = "  [2]: divided-difference 1 vs localization 1 [ok]\n" * 2
    assert tally.add(coadjoint, [Response(0, lines)], [""])
    assert not tally.add(coadjoint, [Response(0, lines.replace("[ok]", "[MISMATCH]", 1))], [""])
    assert not tally.add(coadjoint, [Response(0, lines[: len(lines) // 2])], [""])


def test_decks_are_deterministic_per_seed(tmp_path):
    first = [next(decks(w, 7, tmp_path)) for w in ("qseries", "orbits", "selftest")]
    again = [next(decks(w, 7, tmp_path)) for w in ("qseries", "orbits", "selftest")]
    other = [next(decks(w, 8, tmp_path)) for w in ("qseries", "orbits", "selftest")]
    assert first == again and first != other


def test_partition_count_matches_the_package():
    for k in range(1, 10):
        for parts in range(1, 8):
            assert partition_count(k, parts) == len(partitions_at_most(k, parts))
