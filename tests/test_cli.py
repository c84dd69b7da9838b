import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rwlab
from rwlab import casestudy, completion, obstruction, rewrite, structure
from rwlab.cli import main
from rwlab.core import EMPTY, pretty_print
from rwlab.casestudy import preset
from rwlab.invariant import CtParams, closed_form_ct
from rwlab.ring import format_ring, negate


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reduce_from_file(tmp_path, capsys):
    pres = tmp_path / "q.pres"
    pres.write_text(pretty_print(preset("Q")))
    code, out, _ = run_cli(capsys, "reduce", "-p", str(pres), "-w", "a h b")
    assert code == 0
    assert out.strip() == "h b a"


def test_reduce_preset_and_trace(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--preset", "Qbar", "-w", "a h b a", "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "h b a a"
    assert "--K_a@0-->" in lines[0]


def test_reduce_traces_a_tail_served_from_the_cache(capsys):
    # the first step of the second word reaches a word the first one passed,
    # so the rest of its trace comes from the preset's path cache
    first = run_cli(capsys, "reduce", "--preset", "Qbar", "-w", "a a h b", "--trace")
    assert rewrite.check_orientation(preset("Qbar")).mirror(("a", "h", "a", "b")) in (
        preset("Qbar")._path_cache
    )
    second = run_cli(capsys, "reduce", "--preset", "Qbar", "-w", "a a' a h a b", "--trace")
    tail = [
        "a h a b --K_a@0--> h a a b",
        "h a a b --Cb_pp[a]@0--> h a b a",
        "h a b a --C_pp@0--> h b a a",
        "h b a a",
    ]
    assert first == (0, "\n".join(["a a h b --K_a@1--> a h a b"] + tail) + "\n", "")
    assert second == (0, "\n".join(["a a' a h a b --I_a@0--> a h a b"] + tail) + "\n", "")


# h, 60 letters drawn from a a' b b' by random.Random(60), then a b
TRACED_WORD = (
    "h b b a' b a' b' b' b a a a' a' b' a a' a b' a' a' b a' a a b a' a a' b a' b a a' a' b a' "
    "a' a b b' b b' a a a a a a a' b' b b' b' a' b b b' a b' a b' a b"
)


def test_a_long_trace_is_pinned_byte_for_byte(capsys):
    code, out, err = run_cli(capsys, "reduce", "--preset", "Qbar", "-w", TRACED_WORD, "--trace")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 551 and len(out.encode()) == 213925
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5fba30fc1d3fcede3133276de1633d4d13a0bb427b4aeb44cf49d36c9e059225"
    )


def test_phi_verb(capsys):
    code, out, _ = run_cli(capsys, "phi", "--circuit", "CT4", "--eps", "+1", "--delta", "+1")
    assert code == 0
    assert out.strip() == "+ a b - b a"


def test_partial_verb(capsys):
    code, out, _ = run_cli(capsys, "partial", "-w", "a' b a")
    assert code == 0
    assert out.strip() == "+ b a - ε"


def test_nf_verb(capsys):
    code, out, _ = run_cli(capsys, "nf", "--preset", "Qbar", "--max-len", "1")
    assert code == 0
    assert out.splitlines()[0] == "ε"
    assert len(out.splitlines()) == 6


def test_equal_verb(capsys):
    code, out, _ = run_cli(capsys, "equal", "--preset", "Qbar", "h a b", "h b a")
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run_cli(capsys, "equal", "--preset", "Qbar", "a b", "b a")
    assert (code, out.strip()) == (0, "false")


def test_confluence_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "confluence", "--preset", "Q")
    assert code == 1
    assert "UNRESOLVED" in out
    code, out, _ = run_cli(capsys, "confluence", "--preset", "P")
    assert code == 0
    assert out.strip().splitlines()[-1] == "confluent: true"


def test_confluence_prints_each_line_as_its_peak_resolves(capsys, monkeypatch):
    chunks = []
    resolve = completion.resolve_peak

    def resolve_after_reading(peak, p):
        chunks.append(capsys.readouterr().out)  # what was printed since the last peak
        return resolve(peak, p)

    monkeypatch.setattr(completion, "resolve_peak", resolve_after_reading)
    code, out, _ = run_cli(capsys, "confluence", "--preset", "Q")
    assert code == 1 and chunks[0] == "" and len(chunks) > 10
    assert all(chunk.count("\n") == 1 for chunk in chunks[1:])
    lines = "".join(chunks[1:] + [out]).splitlines()
    assert lines == completion.is_confluent_bounded(preset("Q")).lines() + ["confluent: false"]


def test_complete_verb(capsys):
    code, out, _ = run_cli(capsys, "complete", "--preset", "Q", "--max-rules", "5", "--max-lhs-len", "6")
    assert code == 0
    assert "status: bounded-out" in out


def test_classify_and_sigma(capsys):
    code, out, _ = run_cli(capsys, "classify", "-w", "h a h")
    assert (code, out.strip()) == (0, "Zero")
    code, out, _ = run_cli(capsys, "sigma", "a b", "b a")
    assert (code, out.strip()) == (0, "true")


def test_ball_and_dist(capsys):
    code, out, _ = run_cli(capsys, "ball", "--radius", "1")
    assert code == 0
    assert out.splitlines()[0] == "0\tε"
    code, out, _ = run_cli(capsys, "dist", "--preset", "M4", "h h", "ε", "--radius", "4")
    assert code == 0
    assert "unreachable within radius 4" in out


def test_isometry_verb(capsys):
    code, out, _ = run_cli(capsys, "isometry", "--preset", "M4", "--preset2", "N4", "--radius", "2")
    assert code == 0
    code, out, _ = run_cli(capsys, "isometry", "--preset", "Q", "--preset2", "P", "--radius", "2")
    assert code == 1
    assert "FAIL" in out


def test_hn_verb(capsys):
    code, out, _ = run_cli(capsys, "hn", "-w", "b b a")
    assert (code, out.strip()) == (0, "false")
    code, out, _ = run_cli(capsys, "hn", "-w", "a b a' b'")
    assert (code, out.strip()) == (0, "true")


def test_peaks_verb(capsys):
    code, out, _ = run_cli(capsys, "peaks", "--preset", "P")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("peak ") for line in lines)
    assert "peak a a' a [I_a,I_a']" in lines


def test_machine_mode_scalars(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--preset", "Qbar", "-w", "a h b", "--machine")
    assert (code, out.strip()) == (0, "nf=h b a")
    code, out, _ = run_cli(capsys, "equal", "--preset", "Qbar", "h a b", "h b a", "--machine")
    assert (code, out.strip()) == (0, "equal=true")
    code, out, _ = run_cli(capsys, "dist", "--preset", "M4", "h h", "ε", "--radius", "2", "--machine")
    assert (code, out.strip()) == (0, "dist=unreachable")


def test_witness_verb(capsys):
    code, out, _ = run_cli(
        capsys, "witness", "--kind", "phi2x", "--circuit", "CT6", "--x", "a"
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "verified: true"


def test_verify_verb_and_machine_mode(capsys):
    code, out, _ = run_cli(capsys, "verify", "figure2", "--max-len", "1")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("summary: ")
    code, out, _ = run_cli(capsys, "verify", "figure2", "--max-len", "0", "--machine")
    assert code == 0
    assert all("\t" in line or line.startswith("summary=") for line in out.strip().splitlines())


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-verb"])
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "reduce", "-p", "/nonexistent/file.pres", "-w", "a")
    assert code == 2
    assert "cannot read" in err


def test_parse_error_reported(tmp_path, capsys):
    bad = tmp_path / "bad.pres"
    bad.write_text("letters a\nrule R : a c -> a\n")
    code, _, err = run_cli(capsys, "reduce", "-p", str(bad), "-w", "a")
    assert code == 2
    assert "line 2" in err


def test_output_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "identities", "--max-len", "2")
    code2, out2, _ = run_cli(capsys, "verify", "identities", "--max-len", "2")
    assert (code1, out1) == (code2, out2)


def run_cli_process(*argv, timeout=20):
    """Run the CLI in a child process, so that a hang fails the test."""
    src = str(Path(rwlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "rwlab.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("ball", "--radius", "-1"), "must be non-negative, got -1"),
        (("dist", "a", "b", "--radius", "-2"), "must be non-negative, got -2"),
        (("verify", "figure2", "--max-len", "-1"), "must be non-negative, got -1"),
        (("reduce", "-w", "q"), "undeclared letter q"),
        (("equal", "q", "q"), "undeclared letter q"),
        (("peaks", "--preset", "Qbar", "--schema-bound", "-1"), "must be non-negative, got -1"),
        (("confluence", "--schema-bound", "-1"), "must be non-negative, got -1"),
        (("complete", "--schema-bound", "-1"), "must be non-negative, got -1"),
        (("complete", "--max-rules", "-3"), "must be non-negative, got -3"),
        (("complete", "--max-lhs-len", "-1"), "must be non-negative, got -1"),
    ],
    ids=[
        "ball-radius",
        "dist-radius",
        "verify-max-len",
        "reduce-letter",
        "equal-letter",
        "peaks-schema-bound",
        "confluence-schema-bound",
        "complete-schema-bound",
        "complete-max-rules",
        "complete-max-lhs-len",
    ],
)
def test_bad_bounds_and_letters_exit_2(argv, message):
    result = run_cli_process(*argv)
    assert result.returncode == 2
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("phi", "--circuit", "CT2", "--x", "a"),
        ("partial", "-w", "a"),
        ("hn", "-w", "a"),
        ("witness", "--kind", "phi2x", "--circuit", "CT2", "--x", "a"),
        ("verify", "figure2", "--max-len", "0"),
    ],
    ids=lambda argv: argv[0],
)
def test_verbs_without_a_presentation_reject_preset_flags(argv, capsys):
    for flag in (("--preset", "Q"), ("-p", "q.pres")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "obstruction", "--max-len", "1"), "verify obstruction takes no --max-len"),
        (("verify", "isometry", "--max-len", "1"), "verify isometry takes no --max-len"),
        (("verify", "prop31", "--radius", "3"), "verify prop31 takes no --radius"),
        (("verify", "figure2", "--radius", "3"), "verify figure2 takes no --radius"),
        (("verify", "identities", "--radius", "3"), "verify identities takes no --radius"),
        (("verify", "obstruction", "--radius", "3"), "verify obstruction takes no --radius"),
    ],
    ids=[
        "obstruction-max-len",
        "isometry-max-len",
        "prop31-radius",
        "figure2-radius",
        "identities-radius",
        "obstruction-radius",
    ],
)
def test_verify_rejects_bounds_its_suite_ignores(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_verify_max_len_zero_shrinks_the_sweep(capsys):
    code, out, _ = run_cli(capsys, "verify", "identities", "--max-len", "0")
    assert code == 0
    lines = out.splitlines()
    assert "identity (iii) letter prefix\tpass\t0 exhaustive + 1000 randomized instances" in lines
    assert "identity (iv) word prefix\tpass\t4 exhaustive + 1000 randomized instances" in lines


def test_hn_rejects_undeclared_letters():
    result = run_cli_process("hn", "-w", "h q")
    assert result.returncode == 2
    assert "undeclared letter h" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("phi", "--circuit", "CT2", "--x", "a"),
        ("partial", "-w", "a"),
        ("witness", "--kind", "phi2x", "--circuit", "CT2", "--x", "a"),
        ("nf", "--max-len", "1"),
        ("peaks", "--preset", "P"),
        ("confluence", "--preset", "P"),
        ("complete", "--max-rules", "1"),
        ("ball", "--radius", "1"),
        ("isometry", "--radius", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_verbs_without_machine_output_reject_the_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--machine"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --machine" in captured.err
    assert captured.out == ""


def test_verify_isometry_radius_bounds_the_ball_around_h(capsys):
    code, out, _ = run_cli(capsys, "verify", "isometry", "--radius", "1")
    assert code == 0
    names = [line.split("\t")[0] for line in out.splitlines()]
    assert "isometry ball radius 1 around ε" in names
    assert "isometry ball radius 1 around h" in names


def test_classify_puts_z_in_the_zero_class(capsys):
    for w in ("z", "h h"):
        code, out, _ = run_cli(capsys, "classify", "--preset", "M4", "-w", w)
        assert (code, out.strip()) == (0, "Zero")
    code, out, _ = run_cli(capsys, "classify", "--preset", "N4", "-w", "h h", "--machine")
    assert (code, out.strip()) == (0, "hclass=Hh")


def test_classify_outside_the_case_study_shapes_exits_2(tmp_path):
    pres = tmp_path / "ah.pres"
    pres.write_text("letters a h\norder a h\n")
    result = run_cli_process("classify", "-p", str(pres), "-w", "h h h")
    assert result.returncode == 2
    assert "normal form with 3 h letters" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_nf_rejects_a_length_past_the_enumeration_cap():
    # 6^40 words would never finish: the count is checked before enumerating
    result = run_cli_process("nf", "--preset", "M4", "--max-len", "40")
    assert result.returncode == 2
    assert "more than 1000000 words of length <= 40" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_nf_budgets_the_letters_of_its_words(tmp_path):
    # one letter gives only 20 001 words of length <= 20 000, but 200 010 000
    # letters in them: without a letter budget the enumeration never ends
    pres = tmp_path / "a.pres"
    pres.write_text("letters a\norder a\n")
    result = run_cli_process("nf", "-p", str(pres), "--max-len", "20000")
    assert result.returncode == 2
    assert "1 letters give more than 1000000 letters in the words of length <= 20000" in (
        result.stderr
    )
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_ball_stops_past_the_vertex_cap(monkeypatch, capsys):
    monkeypatch.setattr(structure, "BALL_VERTEX_CAP", 1000)
    code, out, err = run_cli(capsys, "ball", "--radius", "60")
    assert code == 2
    assert "exceeds 1000 vertices before radius 60" in err
    assert out == ""


# Φ of two circuits with long word slots, byte for byte as the CLI printed it
# when every circuit edge was built
PHI_GOLDEN = {
    (
        "--circuit", "CT1", "--x", "a'", "--w1", "a b' a' a b b a b' a'",
        "--w2", "b a a b' a' a' b b' a b a", "--eps", "-1", "--delta", "+1",
    ): "- a b a a b' a' b a b a' + b a a b' a' b a b a' + a b a a b' a' b b"
    " - b a a b' a' b b\n",
    (
        "--circuit", "CT7", "--w1", "b a' a' b b' a b a b'", "--eps1", "+1", "--delta1", "-1",
        "--w2", "a a b' b' a' b a' b b a a' a", "--eps2", "-1", "--delta2", "-1",
    ): "+ b' a a b' b' a' b a' b b a b' a' - a a b' b' a' b a' b b a b' a'"
    " - b' a a b' b' a' b a' b + a a b' b' a' b a' b\n",
}


@pytest.mark.parametrize("argv", list(PHI_GOLDEN), ids=lambda argv: argv[1])
def test_phi_of_long_circuits_is_pinned(argv, capsys):
    assert run_cli(capsys, "phi", *argv) == (0, PHI_GOLDEN[argv], "")


@pytest.mark.parametrize(
    "signs", [("+1", "+1", "+1", "+1"), ("-1", "+1", "-1", "-1"), ("+1", "-1", "+1", "-1")]
)
def test_phi_ct7_word_slots_default_to_the_empty_word(signs, capsys):
    slots = ("eps1", "delta1", "eps2", "delta2")
    flags = [f for slot, sign in zip(slots, signs) for f in (f"--{slot}", sign)]
    code, out, _ = run_cli(capsys, "phi", "--circuit", "CT7", *flags)
    e1, d1, e2, d2 = (int(s) for s in signs)
    params = CtParams("CT7", w1=EMPTY, eps1=e1, delta1=d1, w2=EMPTY, eps2=e2, delta2=d2)
    assert (code, out.strip()) == (0, format_ring(closed_form_ct(params, preset("P"))))


@pytest.mark.parametrize(
    "argv, message",
    [
        (("phi", "--circuit", "CT2", "--x", "a", "--w", "a"), "does not take parameter w"),
        (
            ("witness", "--kind", "phi2x", "--circuit", "CT2", "--x", "a", "--w", "a"),
            "does not take parameter w",
        ),
        (("phi", "--circuit", "CT4", "--w", "h", "--eps", "1", "--delta", "1"), "w must be a word"),
        (
            ("witness", "--kind", "commutator", "--w", "a a'", "--eps", "1", "--delta", "1"),
            "requires a reduced word",
        ),
    ],
    ids=["phi-extra-slot", "phi2x-extra-slot", "phi-bad-word", "commutator-unreduced"],
)
def test_circuit_slot_flags_reject_bad_parameters(argv, message, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert message in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "-w", "a"),
        ("phi", "--circuit", "CT2", "--x", "a"),
        ("witness", "--kind", "phi2x", "--circuit", "CT2", "--x", "a"),
        ("verify", "figure2", "--max-len", "0"),
    ],
    ids=lambda argv: argv[0],
)
def test_no_verb_takes_jobs(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--jobs", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --jobs 2" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--circuit", "CT2"),
        ("--x", "a"),
        ("--w1", "b"),
        ("--w2", "b"),
        ("--eps1", "1"),
        ("--delta1", "1"),
        ("--eps2", "-1"),
        ("--delta2", "-1"),
    ],
)
def test_commutator_witness_rejects_the_other_slot_flags(flag, value, capsys):
    argv = ("witness", "--kind", "commutator", "--w", "a", "--eps", "1", "--delta", "1")
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"commutator witness takes no {flag}" in captured.err
    assert captured.out == ""
    assert run_cli(capsys, *argv)[0] == 0


def test_reduce_rejects_trace_with_machine(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "-w", "b a h", "--trace", "--machine"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "reduce --trace takes no --machine" in captured.err
    assert captured.out == ""


def test_isometry_stops_past_the_pair_cap(monkeypatch, capsys):
    monkeypatch.setattr(rewrite, "ENUMERATION_CAP", 100)
    code, out, err = run_cli(capsys, "isometry", "--radius", "2")
    assert code == 2
    assert "more than 100" in err
    assert out == ""


# Exact stdout of small verify runs, so that a refactor of a sweep cannot
# change a count, a name or the draw order of its random samples unnoticed.
VERIFY_GOLDEN = {
    ("figure2", "--max-len", "1"): [
        "figure2 CT1\tpass\t348 instances",
        "figure2 CT2\tpass\t4 instances",
        "figure2 CT3\tpass\t238 instances",
        "figure2 CT4\tpass\t206 instances",
        "figure2 CT5\tpass\t280 instances",
        "figure2 CT6\tpass\t4 instances",
        "figure2 CT7\tpass\t336 instances",
        "summary: 7/7",
    ],
    ("identities", "--max-len", "2"): [
        "identity (i) base values\tpass\t4 letters",
        "identity (ii) swap image\tpass\t84 instances",
        "identity (iii) letter prefix\tpass\t80 exhaustive + 1000 randomized instances",
        "identity (iv) word prefix\tpass\t228 exhaustive + 1000 randomized instances",
        "summary: 4/4",
    ],
    ("prop31", "--max-len", "2"): [
        "prop31 normal-form shapes\tpass\t31 words of length <= 2, 0 bad normal forms",
        "prop31 bounded confluence\tpass\t3138 peaks at schema bound 3, 0 unresolved",
        "prop31 oracle agreement\tpass\t1 words of length <= 0 against the closure at "
        "bound 4; 0 partition disagreements",
        "prop31 oracle spot-check\tpass\tbatched closure vs direct BFS on 20 pairs",
        "summary: 4/4",
    ],
    ("prop31", "--max-len", "4"): [
        "prop31 normal-form shapes\tpass\t781 words of length <= 4, 0 bad normal forms",
        "prop31 bounded confluence\tpass\t3138 peaks at schema bound 3, 0 unresolved",
        "prop31 oracle agreement\tpass\t31 words of length <= 2 against the closure at "
        "bound 6; 0 partition disagreements",
        "prop31 oracle spot-check\tpass\tbatched closure vs direct BFS on 20 pairs",
        "summary: 4/4",
    ],
    ("obstruction",): [
        "obstruction commutator witnesses\tpass\t1940 ring-verified",
        "obstruction image-to-X witnesses\tpass\t12064 ring-verified",
        "obstruction basepoint kills generators\tpass\t(1-a) and 5828 X generators",
        "obstruction basepoint separates b-powers\tpass\t10 distinct nonzero coset vectors",
        "summary: 4/4",
    ],
    ("isometry", "--radius", "1"): [
        "isometry normal-form sets\tpass\t1519 vs 1519 normal forms of length <= 6",
        "isometry ball radius 1 around ε\tpass\t49 ordered pairs",
        "isometry ball radius 1 around h\tpass\t36 ordered pairs",
        "summary: 3/3",
    ],
}


@pytest.mark.parametrize("argv", list(VERIFY_GOLDEN), ids=lambda argv: "-".join(argv))
def test_verify_stdout_is_pinned(argv, capsys):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    assert out == "\n".join(VERIFY_GOLDEN[argv]) + "\n"


def test_failing_sweep_names_its_first_failing_instance(monkeypatch, capsys):
    # a CT4 closed form with the wrong sign breaks every commutator witness
    # (each ends in a CT4 term) and every CT4 image-to-X witness
    real = obstruction.closed_form_ct

    def corrupted(params, ambient):
        value = real(params, ambient)
        return negate(value) if params.family == "CT4" else value

    monkeypatch.setattr(obstruction, "closed_form_ct", corrupted)
    code, out, err = run_cli(capsys, "verify", "obstruction")
    assert (code, err) == (1, "")
    first_ct4 = CtParams("CT4", w=EMPTY, eps=1, delta=1)
    assert [line for line in out.splitlines() if "\tFAIL\t" in line] == [
        "obstruction commutator witnesses\tFAIL\t0 ring-verified; first mismatch ((), 1, 1)",
        "obstruction image-to-X witnesses\tFAIL\t11724 ring-verified; "
        f"first mismatch {first_ct4!r}",
    ]
    assert out.splitlines()[-1] == "summary: 2/4"


def test_verify_prop31_checks_the_closure_budget_before_normalizing(monkeypatch, capsys):
    def normalize(*args):
        raise AssertionError("a word was normalized before the budget check")

    monkeypatch.setattr(casestudy, "normalize", normalize)
    code, out, err = run_cli(capsys, "verify", "prop31", "--max-len", "7")
    assert (code, out) == (2, "")
    assert "5 letters give more than 1000000 words of length <= 9" in err


@pytest.mark.parametrize(
    "suite, bound, instances",
    [("figure2", "7", 3208992), ("identities", "8", 3728268)],
)
def test_verify_sweeps_check_their_budget_before_building_a_path(
    suite, bound, instances, monkeypatch, capsys
):
    def build(*args):
        raise AssertionError("a path was built before the budget check")

    monkeypatch.setattr(casestudy, "build_ct_circuit", build)
    monkeypatch.setattr(casestudy, "build_C_path", build)
    assert instances > rewrite.ENUMERATION_CAP  # counted with the sweeps themselves
    code, out, err = run_cli(capsys, "verify", suite, "--max-len", bound)
    assert (code, out) == (2, "")
    assert err == f"rwlab: {suite} sweep at bound {bound}: more than 1000000 instances\n"


@pytest.mark.parametrize(
    "argv, lines, sha256",
    [
        (
            ("peaks", "--preset", "Qbar", "--schema-bound", "3"),
            3138,
            "fb4dfaee04905b85e41448ea91dbddba4eca5331942b1fa859841a851f584aa8",
        ),
        (
            ("confluence", "--preset", "Qbar", "--schema-bound", "2"),
            771,
            "682726119a0404aa8a13e91c049d83590c9daddab76eb1c2a6b179e27fb082c2",
        ),
        (
            ("confluence", "--preset", "Qbar", "--schema-bound", "3"),
            3139,
            "a338c994806f859d053f387236add27c540734493d4aaddc222b6c8977338613",
        ),
    ],
)
def test_peak_listings_are_pinned_byte_for_byte(argv, lines, sha256, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "argv, lines, sha256",
    [
        (
            ("complete", "--preset", "Q", "--max-rules", "50", "--max-lhs-len", "8"),
            52,
            "2424bb537e8ff6e6b2efec5cc1f4a0a784853756fd0a5ab80aec1764afd5d520",
        ),
        (  # 140 rules added, then bounded out by the lhs length
            ("complete", "--preset", "Q", "--max-rules", "500", "--max-lhs-len", "8"),
            142,
            "06820926b92ff3f7221c20629f5c09e73334c435c09c7e36fe28610a1351f6fc",
        ),
        (
            ("complete", "--preset", "Qbar", "--max-rules", "10", "--max-lhs-len", "8",
             "--schema-bound", "3"),
            2,
            "40d08e0c1ee86e03308ee8056a119013934e87c5990f0aa6e01ae13ae83c1002",
        ),
    ],
)
def test_completion_runs_are_pinned_byte_for_byte(argv, lines, sha256, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("verb", ["peaks", "confluence", "complete"])
def test_peak_verbs_check_the_instance_budget_before_instantiating(verb, monkeypatch, capsys):
    def instantiate(*args):
        raise AssertionError("a schema was instantiated before the budget check")

    monkeypatch.setattr(completion, "instantiate_schema", instantiate)
    code, out, err = run_cli(capsys, verb, "--preset", "Qbar", "--schema-bound", "12")
    assert (code, out) == (2, "")
    assert err == "rwlab: more than 1000000 schema instances at bound 12\n"
