"""Placeholder substitution rules."""

from neolaf.templates import DEFAULT_TEMPLATES, PLACEHOLDERS, TEMPLATE_NAMES, render


def test_known_placeholders_substituted():
    assert render("Q: {query} C: {context}", query="sum", context="none") == "Q: sum C: none"


def test_unknown_braces_left_verbatim():
    template = "keep {latex} and {braces} but fill {query}"
    assert render(template, query="x") == "keep {latex} and {braces} but fill x"


def test_missing_value_leaves_slot():
    assert render("{query} and {context}", query="a") == "a and {context}"


def test_default_templates_cover_all_slots():
    # the eight slots the README documents for kit files
    assert set(TEMPLATE_NAMES) == {"situation", "decompose", "plan", "forecast",
                                   "execute", "evaluate", "distill", "confidence"}


def test_templates_use_only_known_placeholders():
    import re

    slot = re.compile(r"\{([a-z_]+)\}")
    for name, template in DEFAULT_TEMPLATES.items():
        for found in slot.findall(template):
            assert found in PLACEHOLDERS, f"{name} uses unknown slot {found}"


def test_template_first_lines_are_distinct():
    # fixture generation recognizes phases by the first template line
    first_lines = [t.splitlines()[0] for t in DEFAULT_TEMPLATES.values()]
    assert len(set(first_lines)) == len(first_lines)
