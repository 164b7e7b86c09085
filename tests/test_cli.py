"""Command-line behaviour: exit codes, outputs, determinism."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lstaq.cli
from lstaq.ast import MAX_QUBITS
from lstaq.cli import bench_groups, bench_sources, main
from lstaq.oracle import MAX_SET_ASSIGNMENTS
from lstaq.parser import MAX_ATOMS, MAX_TERM_PAIRS, parse_many
from lstaq.qubit_reorder import MAX_SLICE_ASSIGNMENTS
from tests.test_qubit_reorder import neq_graph
from tests.test_var_reorder import S_A, S_B


def spec_file(tmp_path, text: str, name: str = "in.spec"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# Exit codes.
# ---------------------------------------------------------------------------


def test_translate_succeeds(tmp_path, capsys):
    f = spec_file(tmp_path, "{ (1/sqrt2)|0 0> + (1/sqrt2)|1 1> }")
    assert main(["translate", f]) == 0
    out = capsys.readouterr().out
    assert out.startswith("lsta v1")
    assert "qubits 2" in out


def test_syntax_errors_exit_1(tmp_path, capsys):
    f = spec_file(tmp_path, "{ |0> ")
    assert main(["translate", f]) == 1
    assert "error:" in capsys.readouterr().err


def test_well_formedness_errors_exit_2(tmp_path, capsys):
    f = spec_file(tmp_path, "{ sum[ i != j ] |i j> }")
    assert main(["translate", f]) == 2
    assert "error:" in capsys.readouterr().err


def test_alignment_errors_exit_3(tmp_path, capsys):
    f = spec_file(tmp_path, "{ |0> } ;; { |0> } (x) { |0> }")
    assert main(["translate", f]) == 3
    assert "error:" in capsys.readouterr().err


def test_resource_caps_exit_4(tmp_path, capsys):
    f = spec_file(tmp_path, "{ sum[ |i| = 3 ] |i> }")
    assert main(["oracle", f, "--cap", "2"]) == 4
    assert "error:" in capsys.readouterr().err


def test_slice_limit_exits_4(tmp_path, capsys):
    k = MAX_SLICE_ASSIGNMENTS.bit_length()
    f = spec_file(tmp_path, neq_graph("chain", k))
    assert main(["translate", f]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: a qubit slice needs")


def _run_cli(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """``python -m lstaq ARGS`` on this checkout; raises if it outlives ``timeout``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "lstaq", *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


CEILING = f"over the limit of {MAX_QUBITS}"


# Each hung or ran out of memory before the qubit and exponent ceilings;
# the message names the count (or its lower bound) and the ceiling.
@pytest.mark.parametrize("text, named", [
    ("{ |0> } ^ 100000000", "the spec spans 100000000 qubits"),
    ("{ |0> } ^ 99999999999999999999", "the spec spans 99999999999999999999 qubits"),
    ("{ |0^99999999999999> }", "1:6: the ket spans at least 99999999999999 qubits"),
    ("{ |v> : |v| = 100000000 }", "the spec spans 100000000 qubits"),
    ("{ |0^100000000> }", "1:6: the ket spans at least 100000000 qubits"),
    # The bound counts the ket's qubits over all its runs.
    ("{ |0^65535 1 0^1> }", "1:16: the ket spans at least 65537 qubits"),
    ("{ a^100000000 |0> }", "1:5: an exponent of 100000000"),
    ("{ 2^100000000 |0> }", "1:5: an exponent of 100000000"),
    ("{ sqrt2^100000000 |0> }", "1:9: an exponent of 100000000"),
    ("{ (1+i)^1000000000 |0> }", "1:9: an exponent of 1000000000"),
])
def test_oversized_specs_exit_4_within_two_seconds(tmp_path, text, named):
    done = _run_cli(["translate", spec_file(tmp_path, text)], timeout=2)
    assert done.returncode == 4
    assert done.stderr == f"error: {named}, {CEILING}\n"


def test_oversized_bench_sizes_exit_1_within_two_seconds():
    done = _run_cli(["bench", "ghz", "4,100000000"], timeout=2)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == f"error: ghz requires n <= {MAX_QUBITS}, got n = 100000000\n"


# Each translated, then ended in an internal ValueError when written.
@pytest.mark.parametrize("text", ["{ 2^65536 |0> }", "{ 2^10000 |0> } ^ 2"])
def test_a_coefficient_too_long_to_write_exits_4(tmp_path, text):
    done = _run_cli(["translate", spec_file(tmp_path, text)], timeout=5)
    assert done.returncode == 4
    assert done.stderr == ("error: an amplitude coefficient is too long to write"
                           f" in decimal (over {sys.get_int_max_str_digits()} digits)\n")


# Each ran past 20 seconds, enumerating 2^30 and 4096 * 4097 assignments.
@pytest.mark.parametrize("cap, text, count", [
    ("30", "{ |x> : |x| = 30 }", 2 ** 30),
    ("12", "{ |x> + sum[ |i| = 12 ] |i> : |x| = 12 }", 4096 * 4097),
])
def test_oracle_sets_past_the_assignment_budget_exit_4_within_two_seconds(
        tmp_path, cap, text, count):
    done = _run_cli(["oracle", spec_file(tmp_path, text), "--cap", cap], timeout=2)
    assert done.returncode == 4
    assert done.stdout == ""
    assert done.stderr == (f"error: the oracle needs {count} assignments for one set,"
                           f" over the limit of {MAX_SET_ASSIGNMENTS}\n")


# Each ran past 20 seconds.  The count is the running product of the
# factors' set sizes, so 10 members ^ 6 is refused at the fifth factor,
# 10^5 products.
@pytest.mark.parametrize("cap, text, count", [
    ("12", "{ |x> + |y> : |x| = 2, |y| = 2 } ^ 6", 10 ** 5),
    ("30", "{ |x> : |x| = 15 } ^ 2", 2 ** 30),
    ("30", "{ |x> : |x| = 10 } (x) { |y> : |y| = 10 }", 2 ** 20),
])
def test_oracle_products_past_the_budget_exit_4_within_two_seconds(
        tmp_path, cap, text, count):
    done = _run_cli(["oracle", spec_file(tmp_path, text), "--cap", cap], timeout=2)
    assert done.returncode == 4
    assert done.stdout == ""
    assert done.stderr == (f"error: the oracle needs {count} products for one tensor"
                           f" of sets, over the limit of {MAX_SET_ASSIGNMENTS}\n")


_TEN_MEMBERS = "{ |x> + |y> : |x| = 2, |y| = 2 }"


# Each spent about 1 s building the 10^4 products of four factors first.
@pytest.mark.parametrize("text", [f"{_TEN_MEMBERS} ^ 6", " (x) ".join([_TEN_MEMBERS] * 5)],
                         ids=["power", "tensor"])
def test_oracle_products_are_refused_before_any_is_built(tmp_path, capsys, monkeypatch, text):
    spent = []

    def timed_denote(*args, **kwargs):
        t0 = time.process_time()
        try:
            return denote(*args, **kwargs)
        finally:
            spent.append(time.process_time() - t0)

    denote = lstaq.cli.denote
    monkeypatch.setattr(lstaq.cli, "denote", timed_denote)
    assert main(["oracle", spec_file(tmp_path, text), "--cap", "30"]) == 4
    assert len(spent) == 1 and spent[0] < 0.3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the oracle needs 100000 products for one tensor"
                            f" of sets, over the limit of {MAX_SET_ASSIGNMENTS}\n")


def test_an_oracle_product_within_the_budget_still_lists(tmp_path, capsys):
    f = spec_file(tmp_path, "{ |x> + |y> : |x| = 2, |y| = 2 } ^ 4")
    assert main(["oracle", f]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "// assertion 0: 10000 members" and len(out) == 10001


def test_check_oracle_on_a_dense_language_exits_4_within_two_seconds(tmp_path):
    # The language has only 4096 members, but level k holds 4^k live positions.
    f = spec_file(tmp_path, "{ |x> + sum[ |i| = 12 ] |i> : |x| = 12 }")
    done = _run_cli(["translate", f, "--check-oracle"], timeout=2)
    assert done.returncode == 4
    assert done.stderr == ("error: enumeration exceeded the limit of 100000"
                           " live positions at one level\n")


def test_oracle_refuses_a_coefficient_too_long_to_write(tmp_path, capsys):
    assert main(["oracle", spec_file(tmp_path, "{ 2^10000 |0> } ^ 2")]) == 4
    assert "too long to write in decimal" in capsys.readouterr().err


def test_oracle_prints_nothing_when_a_later_assertion_fails(tmp_path):
    done = _run_cli(["oracle", spec_file(tmp_path, "{ |0> } ;; { 2^65536 |0> }")], timeout=10)
    assert done.returncode == 4
    assert done.stdout == ""
    assert done.stderr == ("error: an amplitude coefficient is too long to write"
                           f" in decimal (over {sys.get_int_max_str_digits()} digits)\n")


def test_an_amplitude_expanding_past_the_term_budget_exits_4_within_two_seconds(tmp_path):
    # (a+b)^2000 squares (a+b)^256, 257 terms, before it could finish.
    done = _run_cli(["translate", spec_file(tmp_path, "{ (a+b)^2000 |0> }")], timeout=2)
    assert done.returncode == 4
    assert done.stdout == ""
    assert done.stderr == ("error: an amplitude product of 66049 term pairs is over"
                           " the limit of 65536\n")


def test_amplitudes_past_the_term_budget_of_a_parse_exit_4_within_1_5_cpu_seconds(
        tmp_path, capsys):
    # Each amplitude multiplies 121,180 term pairs, all within the bound on
    # one product, in about 0.7 s; four of them took 3.1 s to parse.
    amplitude = "(a+b)^255 * (a+b)^255"
    f = spec_file(tmp_path, "{ " + ", ".join([f"{amplitude} |0>"] * 8) + " }")
    t0 = time.process_time()
    assert main(["translate", f]) == 4
    assert time.process_time() - t0 < 1.5
    captured = capsys.readouterr()
    assert captured.out == ""
    # Refused at the second amplitude's first power, the product passing it.
    col = len("{ " + amplitude + " |0>, (a+b)") + 1
    assert captured.err == (f"error: 1:{col}: the amplitudes multiply at least 132490 term"
                            f" pairs, over the limit of {MAX_TERM_PAIRS}\n")


def test_an_amplitude_under_the_term_budget_still_translates(tmp_path, capsys):
    assert main(["translate", spec_file(tmp_path, "{ (a+b)^100 |0> }")]) == 0
    out = capsys.readouterr().out
    assert "vars a b" in out and "a^100" in out


@pytest.mark.parametrize("text", [
    "{ |0> }^100000000", "{ |0> }^99999999999999999999", "{ |v> : |v| = 100000000 }"])
def test_fmt_of_an_oversized_spec_still_works(tmp_path, capsys, text):
    assert main(["fmt", spec_file(tmp_path, text)]) == 0
    assert capsys.readouterr().out == text + "\n"


def test_fmt_of_kets_at_the_ceiling_is_prompt(tmp_path):
    # Each bit of a run used to rescan the run, which took 26 s here.
    text = f"{{ |0^{MAX_QUBITS}> + |1^{MAX_QUBITS}> }}"
    done = _run_cli(["fmt", spec_file(tmp_path, text)], timeout=2)
    assert done.returncode == 0
    assert done.stdout == f"{{ |{'0' * MAX_QUBITS}> + |{'1' * MAX_QUBITS}> }}\n"


# Each translated before names and digits were ASCII only: ``é`` as an
# amplitude name, ``x²`` as a variable, and ``٣`` as the amplitude 3.
@pytest.mark.parametrize("text, at", [
    ("{ é |x²> : |x²| = 1 }", "1:3: unexpected character 'é'"),
    ("{ |0>,\n  ٣ |1> }", "2:3: unexpected character '٣'"),
])
def test_non_ascii_names_and_digits_are_syntax_errors(tmp_path, capsys, text, at):
    for command in ("translate", "fmt"):
        assert main([command, spec_file(tmp_path, text)]) == 1
        assert capsys.readouterr().err == f"error: {at}\n"


def test_kets_past_the_atom_budget_exit_4_within_two_seconds(tmp_path):
    # 64 terms of |0^65536> took 7 s to parse and 19.6 s to translate.
    text = "{ " + " + ".join([f"|0^{MAX_QUBITS}>"] * 64) + " }"
    done = _run_cli(["translate", spec_file(tmp_path, text)], timeout=2)
    assert done.returncode == 4
    col = 3 + 4 * len(f"|0^{MAX_QUBITS}> + ") + 1
    assert done.stderr == (f"error: 1:{col}: the kets hold at least {5 * MAX_QUBITS} atoms,"
                           f" over the limit of {MAX_ATOMS}\n")


def test_an_integer_too_long_to_convert_is_a_syntax_error(tmp_path, capsys):
    f = spec_file(tmp_path, "{ |0> } ^ " + "9" * 5000)
    assert main(["translate", f]) == 1
    assert capsys.readouterr().err == "error: 1:11: an integer of 5000 digits is too long\n"


def test_exit_2_faults_come_before_the_qubit_ceiling(tmp_path, capsys):
    f = spec_file(tmp_path, "{ |0> } ^ 100000000 ;; { sum[ i != j ] |i j> }")
    assert main(["translate", f]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["translate", "oracle", "fmt"])
def test_unreadable_input_files_exit_4(tmp_path, capsys, command):
    missing = str(tmp_path / "missing.spec")
    assert main([command, missing]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and missing in err[0]
    binary = tmp_path / "binary.spec"
    binary.write_bytes(b"{ |0> } \xff\xfe")
    assert main([command, str(binary)]) == 4
    assert "error:" in capsys.readouterr().err


def test_unexpected_exceptions_exit_4_with_one_line(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise ValueError("no such thing")

    monkeypatch.setattr(lstaq.cli, "cmd_fmt", broken)
    f = spec_file(tmp_path, "{ |0> }")
    assert main(["fmt", f]) == 4
    assert capsys.readouterr().err == "error: internal: ValueError: no such thing\n"
    # --debug adds the traceback before the same line.
    assert main(["--debug", "fmt", f]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert "in broken" in err
    assert err.endswith("\nerror: internal: ValueError: no such thing\n")


def test_keyboard_interrupt_is_not_caught(tmp_path, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(lstaq.cli, "cmd_fmt", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["fmt", spec_file(tmp_path, "{ |0> }")])


def test_bench_sizes_must_be_integers(capsys):
    assert main(["bench", "bv", "abc"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", [",", "", " , "])
def test_bench_without_a_size_exits_1_before_any_output(sizes, capsys):
    assert main(["bench", "bv", sizes]) == 1
    assert capsys.readouterr() == ("", "error: no sizes given\n")


@pytest.mark.parametrize("family, size", [
    ("bv", "-2"), ("mctoffoli", "0"), ("bv", "0"), ("ghz", "0")])
def test_bench_sizes_below_the_family_minimum_exit_1(family, size, capsys):
    # Checked before any row is printed, and named in the message.
    assert main(["bench", family, f"4,{size}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {family} requires n >= 1, got n = {size}\n"


def test_a_partial_theta_exits_4_naming_the_unbound_variable(tmp_path, capsys):
    f = spec_file(tmp_path, "{ a |0> + b |1> }")
    assert main(["translate", f, "--check-oracle", "--theta", "a=1"]) == 4
    err = capsys.readouterr().err
    assert err == "error: no value supplied for amplitude variable 'b'\n"


def test_malformed_theta_exits_1(tmp_path, capsys):
    # Refused before any automaton or report is written.
    f = spec_file(tmp_path, "{ a |0> + a |1> }")
    assert main(["translate", f, "--check-oracle", "--theta", "a=@@"]) == 1
    assert capsys.readouterr().out == ""
    assert main(["translate", f, "--check-oracle", "--theta", "x"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --theta expects NAME=VALUE, got 'x'\n"


# A set whose `=` filters contradict each other has no satisfying
# assignment: it translates to its zero vector, as a contradictory `!=` set
# does, and the oracle agrees.
@pytest.mark.parametrize("text, members", [
    (r"{ |x> : x = 0, x = 1 } \/ { |1> }", 1),
    ("{ |x> : x = 0, x = 1 } (x) { |1> }", 0),
    ("{ |x> : x = 01, x = 10 }", 0),
], ids=["union", "tensor", "two-bit"])
def test_contradictory_equalities_translate_and_match_the_oracle(tmp_path, capsys, text, members):
    assert main(["translate", spec_file(tmp_path, text), "--check-oracle"]) == 0
    captured = capsys.readouterr()
    assert f"assertion 0: ok — {members} members match\n" in captured.out
    assert captured.err == ""


# ---------------------------------------------------------------------------
# Output determinism and file emission.
# ---------------------------------------------------------------------------


def test_translate_output_is_byte_deterministic(tmp_path, capsys):
    f = spec_file(tmp_path, "{ sum[ |i| = 2, i != 01 ] |i j> : |j| = 1 }"
                            " ;; { |1 1 0> }")
    assert main(["translate", f, "--order-report", "--stats"]) == 0
    first = capsys.readouterr().out
    assert main(["translate", f, "--order-report", "--stats"]) == 0
    second = capsys.readouterr().out
    strip = lambda s: "\n".join(  # noqa: E731 - wall-clock lines vary
        ln for ln in s.splitlines() if "seconds" not in ln)
    assert strip(first) == strip(second)


def test_translate_writes_one_automaton_per_assertion(tmp_path, capsys):
    f = spec_file(tmp_path, "{ |0> } ;; { |1> }", "pair.spec")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["translate", f, "-o", str(out), "--stats"]) == 0
    capsys.readouterr()
    assert (out / "pair_0.lsta").exists()
    assert (out / "pair_1.lsta").exists()
    assert (out / "pair.perm").exists()
    assert (out / "pair.stats").exists()
    assert (out / "pair_0.lsta").read_text().startswith("lsta v1")


def test_unwritable_outputs_exit_4_naming_the_path(tmp_path, capsys):
    # The dumps are printed only once every file is written, so a failed
    # write leaves stdout empty.
    f = spec_file(tmp_path, "{ |0> }", "one.spec")
    dumps = ["--order-report", "--dump-aligned", "--dump-slices"]
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["translate", f, "-o", str(taken), *dumps]) == 4
    assert capsys.readouterr() == (
        "", f"error: cannot write {str(taken)!r}: File exists\n")
    out = tmp_path / "out"
    (out / "one_0.lsta").mkdir(parents=True)
    assert main(["translate", f, "-o", str(out), *dumps]) == 4
    target = str(out / "one_0.lsta")
    assert capsys.readouterr() == ("", f"error: cannot write {target!r}: Is a directory\n")


def test_debug_dumps_have_markers(tmp_path, capsys):
    f = spec_file(tmp_path, "{ sum[ |i| = 1, i != j ] |i j 0> : |j| = 1 }")
    assert main(["translate", f, "--dump-aligned", "--dump-slices",
                 "--order-report"]) == 0
    out = capsys.readouterr().out
    assert "segment 1" in out
    assert "new_to_old" in out
    assert "slice" in out


# sha256 of the debug dumps below, computed before the slice expansions
# moved out of the translation result.
DUMP_SHA256 = "16a5feca054d2764dce3d37449adb30428430789eb4f7866893e97c08a6eaced"


def test_debug_dumps_are_byte_identical(tmp_path, capsys):
    groups = [[f"{S_A} \\/ {S_B}"]]
    for family in ("bv", "ghz", "grover", "groveriter", "mctoffoli"):
        for n in (2, 3, 4):
            groups += bench_groups(family, n)
    out = []
    for group in groups:
        f = spec_file(tmp_path, " ;; ".join(group))
        assert main(["translate", f, "--dump-aligned", "--dump-slices",
                     "--order-report"]) == 0
        out.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == DUMP_SHA256


def test_constraint_rides_along_with_the_automaton(tmp_path, capsys):
    f = spec_file(tmp_path, "bigU[ re(a) = 0 ] { a |0> + a |1> }")
    assert main(["translate", f]) == 0
    assert "constraint" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Oracle and differential subcommands.
# ---------------------------------------------------------------------------


def test_oracle_lists_members(tmp_path, capsys):
    f = spec_file(tmp_path, "{ |i 0> : |i| = 1 }")
    assert main(["oracle", f]) == 0
    out = capsys.readouterr().out
    assert "2 members" in out
    assert "|00>" in out and "|10>" in out


def test_check_oracle_passes_on_sound_translations(tmp_path, capsys):
    f = spec_file(tmp_path,
                  "bigU[ |a|^2 = 1/2 ] { a |0 0> + a |1 1> } ;; { |0 1> }")
    assert main(["translate", f, "--check-oracle"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_check_oracle_accepts_explicit_valuations(tmp_path, capsys):
    f = spec_file(tmp_path, "{ a |0> - a |1> }")
    assert main(["translate", f, "--check-oracle",
                 "--theta", "a=i/sqrt2"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Formatting and benchmarks.
# ---------------------------------------------------------------------------


def test_fmt_round_trips(tmp_path, capsys):
    src = ("{ |i 0 0> : |i| = 2 } (x) { |0> } \\/ { |1> } ^ 2 ;;"
           " bigU[ re(a) > 1/2 ] { a sum[ |j| = 1 ] |j j 0 0 1 ~j> }")
    f = spec_file(tmp_path, src)
    assert main(["fmt", f]) == 0
    pretty = capsys.readouterr().out
    assert parse_many(pretty) == parse_many(src)


def _chain(op: str, n: int) -> str:
    """A one-assertion spec whose formula joins ``n`` operands by ``op``."""
    sep = ", " if op == "," else f" {op} "
    if op in ("+", "*"):
        formula = sep.join(["re(a)"] * n) + " > 0"
    else:
        formula = sep.join(["re(a) > 0"] * n)
    return f"bigU[ {formula} ] {{ a |0> }}"


@pytest.mark.parametrize("op", ["&&", "+"])
@pytest.mark.parametrize("command", [["fmt"], ["translate", "--check-oracle"]])
def test_long_formula_chains_do_not_crash(tmp_path, capsys, op, command):
    f = spec_file(tmp_path, _chain(op, 3000))
    assert main([command[0], f, *command[1:]]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("op", ["&&", "||", ",", "+", "*"])
def test_fmt_of_a_long_chain_reparses_and_is_stable(tmp_path, capsys, op):
    src = _chain(op, 150)
    assert main(["fmt", spec_file(tmp_path, src)]) == 0
    pretty = capsys.readouterr().out
    assert parse_many(pretty) == parse_many(src)
    assert main(["fmt", spec_file(tmp_path, pretty, "again.spec")]) == 0
    assert capsys.readouterr().out == pretty


def test_bench_smoke(capsys):
    assert main(["bench", "bv", "2,3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["n", "qubits", "pre", "post", "seconds"]
    assert len(out) == 3


def test_python_m_lstaq_runs_the_command_line():
    # From a checkout, where the console script may not be installed.
    done = _run_cli(["bench", "bv", "4"], timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[:5] == ["n", "qubits", "pre", "post", "seconds"]


def test_bench_families_all_generate_parseable_sources():
    for family in ("bv", "ghz", "grover", "groveriter", "mctoffoli"):
        for pre, post, _joint in bench_sources(family, 3):
            parse_many(pre)
            parse_many(post)


def test_bench_rejects_unknown_families(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "nope", "2"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
