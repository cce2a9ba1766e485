"""Bad text in any of the three DSLs is a :class:`FrontendError` at a
``line:column``.

EKL, ConDRust and CFDlang share one lexer and token cursor
(:mod:`repro.frontends.lexer`), so they share this contract too.  The
mutation corpus follows BigFuzz (arXiv:2103.05118): small edits of a
valid program reach the error paths a hand-written case list misses.
Each mutant either parses or is refused with a :class:`FrontendError`;
a CFDlang program that parses is also lowered and interpreted, and the
two refuse the same programs with the same error, because both call
:func:`repro.frontends.cfdlang.check.check_program` first.
"""

import random

import numpy as np
import pytest

from repro.errors import FrontendError, LoweringError, TypeCheckError
from repro.frontends import cfdlang, condrust
from repro.frontends.condrust import FIG4_MAP_MATCHING
from repro.frontends.ekl import FIG3_MAJOR_ABSORBER, parse_kernel

#: The CFDlang package docstring's matrix-vector product.
MATVEC = """
var input A : [4 5]
var input x : [5]
var output y : [4]
y = (A # x) . [[2 3]]
"""


def _refusal(step):
    """``None`` if ``step()`` returns, else the error it raised."""
    try:
        step()
    except (FrontendError, LoweringError) as exc:
        return exc
    return None


def _parse_lower_and_run_cfdlang(source):
    """Parse; lower and interpret what parses, and raise the refusal
    the two share (an ``AssertionError`` if they disagree)."""
    program = cfdlang.parse_program(source)
    inputs = {decl.name: np.ones(decl.shape) for decl in program.decls
              if decl.io == "input"}
    lowered = _refusal(lambda: cfdlang.lower_program_to_cfdlang(program))
    with np.errstate(all="ignore"):  # a mutant may divide by zero
        ran = _refusal(lambda: cfdlang.run_program(program, inputs))
    assert repr(lowered) == repr(ran), \
        f"lowering refused {lowered!r}, the interpreter {ran!r}"
    if lowered is not None:
        raise lowered


#: language -> (golden program, what runs on a mutant of it)
LANGUAGES = {
    "ekl": (FIG3_MAJOR_ABSORBER, parse_kernel),
    "condrust": (FIG4_MAP_MATCHING, condrust.parse_program),
    "cfdlang": (MATVEC, _parse_lower_and_run_cfdlang),
}

#: Characters a mutation inserts or substitutes: some of every
#: language's tokens, whitespace, and characters none of them accepts.
ALPHABET = "abxyz0129._:;,=+-*/#()[]{}&\"' \n\t@$!<>"

MUTANTS = 300


def _mutant(rng, source):
    """``source`` after 1-3 random single-character edits."""
    chars = list(source)
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(3)
        at = rng.randrange(len(chars) + 1)
        if edit == 0:
            chars.insert(at, rng.choice(ALPHABET))
        elif edit == 1:
            del chars[min(at, len(chars) - 1)]
        else:
            chars[min(at, len(chars) - 1)] = rng.choice(ALPHABET)
    return "".join(chars)


@pytest.mark.parametrize("language", sorted(LANGUAGES))
def test_bad_character_is_reported_at_its_line_and_column(language):
    golden, run = LANGUAGES[language]
    lines = golden.split("\n")
    # After the first word of line 2, which is a token in every golden.
    column = lines[1].index(" ") + 2
    lines[1] = lines[1][:column - 1] + "@" + lines[1][column - 1:]
    with pytest.raises(FrontendError) as err:
        run("\n".join(lines))
    assert str(err.value) == f"2:{column}: unexpected character '@'"


@pytest.mark.parametrize("language", sorted(LANGUAGES))
def test_mutants_parse_or_raise_frontend_error(language):
    golden, run = LANGUAGES[language]
    run(golden)
    rng = random.Random(f"mutants-{language}")
    escapes = []
    for _ in range(MUTANTS):
        source = _mutant(rng, golden)
        try:
            run(source)
        except (FrontendError, LoweringError):
            pass
        except Exception as exc:  # anything else escaped the frontend
            escapes.append(f"{type(exc).__name__}: {exc}\n{source}")
    assert not escapes, f"{len(escapes)} escapes; first:\n{escapes[0]}"


@pytest.mark.parametrize("pairs, message", [
    ("[[2 9]]", "contraction pair (2 9) out of range"),
    ("[[0 1]]", "contraction pair (0 1) out of range"),
    ("[[1 1]]", "assignment to 'y': expression shape (5, 5) does not "
                "match declaration (4,)"),
])
def test_cfdlang_lowering_refuses_what_the_interpreter_refuses(pairs,
                                                               message):
    """Contraction pairs past the rank, below 1, or leaving the wrong
    shape are refused by the lowering with the interpreter's error."""
    source = MATVEC.replace("[[2 3]]", pairs)
    with pytest.raises(TypeCheckError) as err:
        _parse_lower_and_run_cfdlang(source)
    assert str(err.value) == message
