"""Bad text in any of the three DSLs is a :class:`FrontendError` at a
``line:column``.

EKL, ConDRust and CFDlang share one lexer and token cursor
(:mod:`repro.frontends.lexer`), so they share this contract too.  The
mutation corpus follows BigFuzz (arXiv:2103.05118): small edits of a
valid program reach the error paths a hand-written case list misses.
Each mutant either parses or is refused with a :class:`FrontendError`;
a CFDlang program that parses is also lowered, where the only other
refusal is the lowering's :class:`LoweringError`.
"""

import random

import pytest

from repro.errors import FrontendError, LoweringError
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


def _parse_and_lower_cfdlang(source):
    cfdlang.lower_program_to_cfdlang(cfdlang.parse_program(source))


#: language -> (golden program, what runs on a mutant of it)
LANGUAGES = {
    "ekl": (FIG3_MAJOR_ABSORBER, parse_kernel),
    "condrust": (FIG4_MAP_MATCHING, condrust.parse_program),
    "cfdlang": (MATVEC, _parse_and_lower_cfdlang),
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
