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
# some end where a number is due, and one is a whole rule that its
# construction check rejects.
PREFIXES = ("", 'v 0 "a"; ', "graph g { v ", "rule r { left { ",
            "rule r { context { v ", 'rule r { right { v 0 "a"; } } ', "level l { ",
            "strategy main = ", "strategy main = takeSubset[",
            "strategy main = repeat[", "predicate p = ")

# Malformed graph, rule and level texts and the exact error of each: every
# check of the entry reader, the block loop and each format's own checks.
FORMAT_ERRORS = [
    (parse_graphs, 'graph g { v 0 "a"; v 0 "b"; }',
     '1:20: duplicate vertex id 0'),
    (parse_graphs, 'graph g { v 0 "a"; e 0 0 "x"; }',
     '1:20: self-loop on vertex 0'),
    (parse_graphs, 'graph g { v 0 "a"; e 0 1 "x"; }',
     '1:20: edge 0-1 references an unknown vertex'),
    (parse_graphs, 'graph g { v 0 "a"; v 1 "a"; e 0 1 "x"; e 1 0 "y"; }',
     '1:40: parallel edge 1-0'),
    (parse_graphs, 'graph g { v 0 "a" }',
     "1:19: expected ';', got '}'"),
    (parse_graphs, 'graph g { v x',
     "1:13: expected 'int', got 'x'"),
    (parse_graphs, 'graph g { v 0 1; }',
     "1:15: expected 'string', got '1'"),
    (parse_graphs, 'graph g { e 0 "a"; }',
     "1:15: expected 'int', got 'a'"),
    (parse_graphs, 'graph g { }\ngraph g { }',
     "2:1: duplicate graph name 'g'"),
    (parse_graphs, 'graph g { x }',
     "1:11: expected '}', got 'x'"),
    (parse_graphs, 'graph g { v 0 "a"; } rule',
     "1:22: expected 'graph', got 'rule'"),
    (parse_graphs, 'graph { }',
     "1:7: expected 'name', got '{'"),
    (parse_graph, 'graph a { }\ngraph b { }',
     '2:1: expected exactly one graph'),
    (parse_graph, 'v 0 "a"; }',
     "1:10: unexpected trailing input '}'"),
    (parse_graph, 'v 0 "a";\ne 0 0 "";',
     '2:1: self-loop on vertex 0'),
    (parse_rules, 'rule r { left { v 0 "a"; v 0 "b"; } }',
     '1:26: duplicate vertex id 0'),
    (parse_rules, 'rule r { left { v 0 "a"; }\n  right { v 0 "b"; } }',
     '2:11: duplicate vertex id 0'),
    (parse_rules, 'rule r { context { v 0 "a"; e 0 0 "x"; } }',
     '1:29: self-loop on vertex 0'),
    (parse_rules, 'rule r { left { v 0 "a"; v 1 "a"; e 0 1 "x"; e 1 0 "x"; } }',
     '1:46: duplicate rule edge 1-0'),
    (parse_rules, 'rule r { context { v 0 "a"; v 1 "a"; e 0 1 "x"; }\n  right { e 1 0 "y"; } }',
     '2:11: edge 1-0 declared in two sections'),
    (parse_rules, 'rule r { middle { } }',
     "1:10: expected a rule section, got 'middle'"),
    (parse_rules, 'rule r { left { } left { } }',
     "1:19: duplicate section 'left'"),
    (parse_rules, 'rule r { left { x; } }',
     "1:17: expected '}', got 'x'"),
    (parse_rules, 'rule r { left { 3 } }',
     "1:17: expected '}', got '3'"),
    (parse_rules, 'rule r { left { v 0 "a" "b"; } }',
     "1:25: expected ';', got 'b'"),
    (parse_rules, 'rule r { context { v 0 "a" "b" "c"; } }',
     "1:32: expected ';', got 'c'"),
    (parse_rules, 'rule r { left { v 0 "a"; } }\nrule r { left { v 0 "a"; } }',
     "2:1: duplicate rule name 'r'"),
    (parse_rules, 'graph r { }',
     "1:1: expected 'rule', got 'graph'"),
    (parse_rules, 'rule r { left { v 0 "a"; }',
     "1:27: expected 'name', got 'end of input'"),
    (parse_level, 'level l { v 0 "0"; v 0 "0"; }',
     '1:20: duplicate vertex id 0'),
    (parse_level, 'level l { v 0 "X"; }',
     '1:15: level vertex labels must be "0", found \'X\''),
    (parse_level, 'level l { v 0 "X"; v 0 "0"; }',
     '1:15: level vertex labels must be "0", found \'X\''),
    (parse_level, 'level l { v 0 "0"; v 1 "0"; e 0 1 "b"; }',
     '1:35: level edge labels must be empty'),
    (parse_level, 'level l { v 0 "0"; e 0 0 ""; }',
     '1:20: self-loop on vertex 0'),
    (parse_level, 'level l { v 0 "0"; v 1 "0"; }',
     '1:1: level graphs must be connected and non-empty'),
    (parse_level, 'level l { }',
     '1:1: level graphs must be connected and non-empty'),
    (parse_level, 'level l { v 0 "0"; } x',
     "1:22: unexpected trailing input 'x'"),
    (parse_level, 'graph l { }',
     "1:1: expected 'level', got 'graph'"),
]

# Rules that read well but are not well-formed, and the error of each: the
# rule's construction check, located at its name.
ILL_FORMED_RULES = [
    ('rule r { right { v 0 "a"; } }', "1:6: rule r: rule has an empty left side"),
    ('rule r {\n  left { v 2 "a"; }\n  context { v 1 "a"; }\n'
     '  right { v 3 "b"; e 2 3 "x"; } }',
     "1:6: rule r: right edge 2-3 touches left-only vertex 2"),
    ('rule ok { context { v 0 "a"; } }\n'
     'rule r { context { v 0 "a"; } left { e 0 1 "x"; } }',
     "2:6: rule r: edge 0-1 references undeclared vertex 1"),
]


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


class TestFormatErrors:
    @pytest.mark.parametrize("parse, text, message", FORMAT_ERRORS)
    def test_error_text_and_location(self, parse, text, message):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", ILL_FORMED_RULES)
    def test_ill_formed_rule_is_located_at_its_name(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_rules(text)
        assert str(info.value) == message


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
