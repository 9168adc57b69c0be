"""Presentation container, file format, tower presentations."""

import pytest

from burnside.presentation import (
    Presentation,
    PresentationSyntaxError,
    parse_presentation,
    power_relator,
    tower_presentation,
)
from burnside.words import parse_word


def test_klein_file():
    p = parse_presentation("gens 2\nrel aa\nrel bb\nrel abab\n")
    assert p.rank == 2
    assert p.relators == ((0, 0), (2, 2), (0, 2, 0, 2))


def test_free_group_file():
    p = parse_presentation("gens 2\n")
    assert p.rank == 2
    assert p.relators == ()
    assert p == Presentation(2, ())


def test_empty_relator_rejected():
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens 2\nrel aA\n")


def test_comments_and_blanks():
    p = parse_presentation("# a comment\ngens 2\n\nrel aa  # trailing\n")
    assert p.relators == ((0, 0),)


def test_syntax_errors_carry_line():
    try:
        parse_presentation("gens 2\nrel aa\nrel a?\n")
    except PresentationSyntaxError as e:
        assert e.line == 3
    else:
        raise AssertionError("expected syntax error")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("rel aa\n")  # missing gens header
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens 0\n")


def test_non_cyclically_reduced_relator_is_reduced():
    p = parse_presentation("gens 2\nrel abA\n")
    # stored freely and cyclically reduced
    assert p.relators == ((2,),)
    assert Presentation(2, ((0, 1, 0, 2, 1),)).relators == ((2,),)


def test_power_relator():
    w = parse_word("ab", 2)
    assert power_relator(w, 1) == w
    assert power_relator(w, 3) == parse_word("ababab", 2)
    assert len(power_relator(w, 5)) == 5 * len(w)


def test_tower_presentation():
    periods = [parse_word("a", 2), parse_word("b", 2), parse_word("ab", 2)]
    p = tower_presentation(2, 2, periods)
    assert p.rank == 2
    assert p.relators == ((0, 0), (2, 2), (0, 2, 0, 2))
    assert tower_presentation(2, 2, []) == Presentation(2, ())


def test_relator_validation():
    with pytest.raises(ValueError):
        Presentation(2, ((),))  # empty relator
    with pytest.raises(ValueError):
        Presentation(1, ((2,),))  # letter outside rank
    with pytest.raises(ValueError):
        Presentation(0, ())
