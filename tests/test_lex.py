import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from gstrat.catalan import parse_level
from gstrat.dsl import ScriptError, parse_script
from gstrat.graphs import parse_graph, parse_graphs
from gstrat.lex import INT, ParseError, tokenize
from gstrat.rules import parse_rules

PARSERS = (parse_graph, parse_graphs, parse_rules, parse_level, parse_script)

# Pieces of all five text formats, and characters that trip a lexer: a bad
# escape, an unterminated string, a comment and non-ASCII digits.
WORDS = (
    "graph", "rule", "level", "molecule", "include", "predicate", "strategy",
    "export", "dot", "json", "main", "g", "r", "p", "v", "e", "left",
    "context", "right", "repeat", "parallel", "revive", "addSubset",
    "takeSubset", "filterSubset", "sortUniverse", "desc", "and", "or", "not",
    "vertexCount", "isGraph", '"a"', '"0"', '""', '"\\q"', '"', "#", "{",
    "}", "[", "]", "(", ")", ";", ",", "=", "==", "!=", "<", "<=", ">", ">=",
    "->",
)
NUMBERS = ("0", "1", "12", "-1", "²", "٣")
# Valid openings, so that the soup also reaches the parsers' inner states;
# some end where a number is due.
PREFIXES = ("", 'v 0 "a"; ', "graph g { v ", "rule r { left { ",
            "rule r { context { v ", "level l { ", "strategy main = ",
            "strategy main = takeSubset[", "strategy main = repeat[",
            "predicate p = ")


class TestTokenize:
    def test_non_ascii_digit_is_located(self):
        # str.isdigit() accepts '²', which int() rejects.
        assert [t.value for t in tokenize("0 12") if t.kind == INT] == ["0", "12"]
        with pytest.raises(ParseError, match="unexpected character '²'") as err:
            tokenize("12²")
        assert (err.value.line, err.value.column) == (1, 3)
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_graph("e ² v")
        assert (err.value.line, err.value.column) == (1, 3)
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_script("strategy main =\n  takeSubset[²]")
        assert (err.value.line, err.value.column) == (2, 14)


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(hs.sampled_from(PREFIXES),
           hs.lists(hs.tuples(hs.one_of(hs.sampled_from(NUMBERS),
                                        hs.sampled_from(WORDS)),
                              hs.sampled_from(("", " ", "\n"))),
                    max_size=40))
    def test_token_soup_raises_only_located_errors(self, prefix, soup):
        text = prefix + "".join(token + sep for token, sep in soup)
        for parse in PARSERS:
            try:
                parse(text)
            except (ParseError, ScriptError):
                pass
