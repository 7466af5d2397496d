"""Evaluation harness: dataset loading, answer checking, eval runs,
and configuration comparison.

Problems come in the open math-dataset layout (one JSON file per problem
with ``problem``/``level``/``type``/``solution`` fields, nested in
subject directories) or as JSON Lines. Reference answers are extracted
from the last boxed region of the worked solution; problems whose answer
cannot be extracted are loaded with an empty reference and excluded from
accuracy denominators. A bad file, or line, raises FormatError naming it.

Answer equality is string equality after normalization, falling back to
exact rational comparison (or 1e-6 relative float agreement) when both
sides parse as arithmetic expressions. Symbolic equivalence is out of
scope: "x+1" and "1+x" are unequal. Normalizing drops ``$`` and ``\\$``,
``\\left`` and ``\\right`` as whole control words (``\\leftarrow`` stays),
and every leading "the answer is"; reads ``\\dfrac`` and ``\\tfrac`` as
``\\frac``; writes ``\\frac{p}{q}`` as ``p/q`` and
``\\sqrt{x}`` as ``sqrt(x)``; and collapses whitespace. It recurses only
into nested ``\\frac`` and ``\\sqrt`` groups, and keeps them as written
past ``calculator.MAX_NESTING`` levels; extraction scans each character once.
"""

from __future__ import annotations

import json
import math
import re
import statistics
import tempfile
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import calculator
from .cognition import StarterKit, solve
from .errors import FormatError, NeolafError, read_json, read_lines
from .kstar import SituationSource
from .memory import EpisodicStore
from .provider import CompletionProvider
from .toolkit import default_registry


class NoFinalAnswer(NeolafError):
    """The solution text contains no balanced boxed answer."""


@dataclass(frozen=True)
class Problem:
    id: str
    statement: str
    reference_solution: str
    reference_answer: str
    level: Optional[str] = None
    subject: Optional[str] = None


# --------------------------------------------------------------------------
# Answer extraction and normalization
# --------------------------------------------------------------------------

_BOXED = "\\boxed{"


def _balanced_braces(text: str, open_index: int, end: Optional[int] = None) -> Optional[str]:
    """The text inside the group that opens at ``open_index``, if it closes before ``end``."""
    depth = 0
    for i in range(open_index, len(text) if end is None else end):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_index + 1 : i]
    return None


def extract_final_answer(solution_text: str) -> str:
    """Normalized content of the last balanced boxed region."""
    position = end = len(solution_text)
    while True:
        position = solution_text.rfind(_BOXED, 0, position)
        if position < 0:
            raise NoFinalAnswer("no boxed answer found")
        inner = _balanced_braces(solution_text, position + len(_BOXED) - 1, end)
        if inner is not None:
            return normalize_answer(inner)
        # Unbalanced: past this point the depth never falls back to this
        # group's start. So a group opened earlier and still open here never
        # closes either: each scan stops where the one before it began.
        end = position


def _wrap_part(part: str) -> str:
    if not part:
        return part
    if part.startswith("(") and part.endswith(")"):
        return part
    if all(c.isalnum() or c in "._" for c in part):
        return part
    return f"({part})"


def _rewrite(text: str, depth: int, marker: str, arity: int, form: Callable[..., str]) -> str:
    """``text`` with each command that opens with ``marker`` and has ``arity``
    groups written as ``form`` of its rewritten groups."""
    if marker not in text:
        return text
    out, start = [], 0
    while (found := text.find(marker, start)) >= 0:
        end, groups = found + len(marker) - 1, []
        while len(groups) < arity and text.startswith("{", end):
            if (group := _balanced_braces(text, end)) is None:
                break
            groups.append(group)
            end += len(group) + 2
        if len(groups) < arity:
            if text.startswith("{", end):  # an unbalanced group: the rest stays verbatim
                break
            out.append(text[start:end])  # a missing group: the command stays verbatim
            start = end
            continue
        out.append(text[start:found] + form(*[_rewrite_all(g, depth + 1) for g in groups]))
        start = end
    out.append(text[start:])
    return "".join(out)


def _rewrite_all(text: str, depth: int = 0) -> str:
    if depth > calculator.MAX_NESTING:
        raise RecursionError(f"groups nested past {calculator.MAX_NESTING} levels")
    text = _rewrite(text, depth, "\\frac{", 2, lambda p, q: f"{_wrap_part(p)}/{_wrap_part(q)}")
    return _rewrite(text, depth, "\\sqrt{", 1, lambda inner: f"sqrt({inner})")


# \left and \right as whole control words: not the start of \leftarrow
_DELIMITER_RE = re.compile(r"\\(?:left|right)(?![A-Za-z])")
# "is" as a whole word: "answer isotope" keeps its "isotope"
_ANSWER_PREFIX_RE = re.compile(r"^(?:(?:the\s+)?(?:final\s+)?answer\s+is(?![a-z])\s*:?\s*)+", re.I)


def _plain(text: str) -> str:
    """``text`` without ``\\left`` and ``\\right``; ``\\dfrac``, ``\\tfrac`` read as ``\\frac``."""
    return _DELIMITER_RE.sub("", text).replace("\\dfrac", "\\frac").replace("\\tfrac", "\\frac")


def normalize_answer(raw: str) -> str:
    """Canonical form of an answer string. Idempotent: one pass, linear in
    the length of ``raw``, reaches the fixed point. ``\\left`` and ``\\right``
    go only as whole control words (``\\rightarrow`` stays), and every
    leading "the answer is" goes."""
    s = _plain(raw.replace("\\$", "").replace("$", "")).strip()
    s = _ANSWER_PREFIX_RE.sub("", s)
    try:
        # a rewritten group can glue onto the text before it (\lef\frac{t}{2}
        # becomes \left/2), so the result is read again
        s = _plain(_rewrite_all(s))
    except RecursionError:  # nested too deeply: keep the groups as written
        pass
    s = re.sub(r"\s+", " ", s)
    return s.strip()


def answers_equal(a: str, b: str) -> bool:
    """Equality after normalization, with a numeric fallback."""
    na, nb = normalize_answer(a), normalize_answer(b)
    if na == nb:
        return True
    va, vb = calculator.try_eval(na), calculator.try_eval(nb)
    if va is None or vb is None:
        return False
    if isinstance(va, Fraction) and isinstance(vb, Fraction):
        return va == vb
    try:
        return math.isclose(float(va), float(vb), rel_tol=1e-6, abs_tol=0.0)
    except OverflowError:
        return False


# --------------------------------------------------------------------------
# Dataset loading
# --------------------------------------------------------------------------


def _problem_from_fields(obj, problem_id=None, subject=None) -> Problem:
    """The problem ``obj`` holds, with ``problem_id`` and ``subject`` unless
    it names its own ``id`` and ``type``; a wrong shape raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("must hold a JSON object")
    for required in ("problem", "solution"):
        if required not in obj:
            raise ValueError(f"missing field {required!r}")
    statement = obj["problem"]
    solution = obj["solution"]
    if not isinstance(statement, str) or not statement.strip():
        raise ValueError("field 'problem' must be non-empty text")
    if not isinstance(solution, str) or not solution.strip():
        raise ValueError("field 'solution' must be non-empty text")
    try:
        reference = extract_final_answer(solution)
    except NoFinalAnswer:
        reference = ""
    return Problem(
        id=str(obj["id"]) if "id" in obj else problem_id,
        statement=statement,
        reference_solution=solution,
        reference_answer=reference,
        level=obj.get("level"),
        subject=obj.get("type", subject),
    )


def load_dataset(path, format: str = "math_dir") -> list[Problem]:
    """Load problems from a directory tree or a JSON Lines file. A file, or
    a line, that fails raises FormatError naming it."""
    path = Path(path)
    if format == "math_dir":
        if not path.is_dir():
            raise FileNotFoundError(f"dataset directory {path} does not exist")
        problems = []
        for file in sorted(path.rglob("*.json")):
            problem_id = file.relative_to(path).with_suffix("").as_posix()
            subject = file.parent.name if file.parent != path else None
            problems.append(read_json(file, partial(
                _problem_from_fields, problem_id=problem_id, subject=subject
            )))
        return problems
    if format == "jsonl":
        lines = read_lines(path, lambda line: _problem_from_fields(json.loads(line)),
                           lambda exc, number: FormatError(exc, path, number))
        return [p if p.id is not None else replace(p, id=f"line{n}") for n, p, _, _ in lines]
    raise ValueError(f"unknown dataset format {format!r}")


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemResult:
    problem_id: str
    answer: str
    correct: bool
    route: str
    elapsed_ms: int
    provider_calls: int
    tool_calls: int
    explanation: str


@dataclass(frozen=True)
class Aggregate:
    n: int
    n_correct: int
    accuracy: float
    mean_elapsed_ms: float
    median_elapsed_ms: float


@dataclass(frozen=True)
class EvalReport:
    config_name: str
    per_problem: tuple[ProblemResult, ...]
    aggregate: Aggregate


def report_to_dict(report: EvalReport) -> dict:
    return asdict(report)


def save_report(report: EvalReport, path) -> None:
    Path(path).write_text(
        json.dumps(asdict(report), ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )


@dataclass
class EvalConfig:
    """One runnable agent configuration for an eval or comparison."""

    name: str
    kit: StarterKit
    provider: CompletionProvider
    system1_only: bool = False


def _aggregate(rows: Sequence[ProblemResult]) -> Aggregate:
    n = len(rows)
    n_correct = sum(1 for r in rows if r.correct)
    elapsed = [r.elapsed_ms for r in rows]
    return Aggregate(
        n=n,
        n_correct=n_correct,
        accuracy=(n_correct / n) if n else 0.0,
        mean_elapsed_ms=float(statistics.mean(elapsed)) if elapsed else 0.0,
        median_elapsed_ms=float(statistics.median(elapsed)) if elapsed else 0.0,
    )


def run_eval(
    config: EvalConfig,
    problems: Sequence[Problem],
    limit: Optional[int] = None,
    fresh_store: bool = False,
    store_dir=None,
) -> EvalReport:
    """Solve each problem and score against its reference answer.

    Problems without an extractable reference are skipped. By default
    one store is shared across the run so learning accumulates;
    ``fresh_store`` isolates each problem in its own store. The shared
    store is ``store_dir`` itself, fresh ones are ``problem-<i>`` under it;
    without ``store_dir`` both go in a temporary directory, the shared one
    as ``shared``. A problem whose provider fails is encoded as a failed
    slow-path encounter, so its row is incorrect and counts the calls its
    record counts, and the run continues. A negative ``limit`` raises
    ValueError. ``config.system1_only`` runs the kit with its
    ``route_threshold`` at 0.
    """
    if limit is not None and limit < 0:
        raise ValueError("limit must be >= 0")
    usable = [p for p in problems if p.reference_answer][:limit]
    kit = replace(config.kit, route_threshold=0.0) if config.system1_only else config.kit

    rows: list[ProblemResult] = []
    registry = default_registry()
    with tempfile.TemporaryDirectory(prefix="neolaf-eval-") as scratch:
        base = Path(scratch) if store_dir is None else Path(store_dir)
        if not fresh_store:
            store = EpisodicStore.open(base / "shared" if store_dir is None else base)
        for index, problem in enumerate(usable):
            if fresh_store:
                store = EpisodicStore.open(base / f"problem-{index}")
            solution = solve(
                problem.statement,
                kit,
                config.provider,
                registry,
                store,
                source=SituationSource.HARNESS,
            )
            rows.append(
                ProblemResult(
                    problem_id=problem.id,
                    answer=solution.answer,
                    correct=answers_equal(solution.answer, problem.reference_answer),
                    route=solution.route.value,
                    elapsed_ms=solution.elapsed_ms,
                    provider_calls=solution.provider_calls,
                    tool_calls=solution.tool_calls,
                    explanation=solution.explanation,
                )
            )

    rows.sort(key=lambda r: r.problem_id)
    return EvalReport(
        config_name=config.name,
        per_problem=tuple(rows),
        aggregate=_aggregate(rows),
    )


@dataclass(frozen=True)
class ComparisonRow:
    config_name: str
    accuracy: float
    mean_elapsed_ms: float
    provider_calls: int


def compare(
    configs: Sequence[EvalConfig],
    problems: Sequence[Problem],
    limit: Optional[int] = None,
) -> tuple[ComparisonRow, ...]:
    """Run every configuration over the same problems. A failing
    configuration fails the comparison, as it fails ``run_eval``; a
    negative ``limit`` raises ValueError.
    """
    if not configs:
        raise ValueError("compare needs at least one configuration")
    rows = []
    for config in configs:
        report = run_eval(config, problems, limit=limit)
        rows.append(
            ComparisonRow(
                config_name=config.name,
                accuracy=report.aggregate.accuracy,
                mean_elapsed_ms=report.aggregate.mean_elapsed_ms,
                provider_calls=sum(r.provider_calls for r in report.per_problem),
            )
        )
    return tuple(rows)


def render_comparison(rows: Sequence[ComparisonRow]) -> str:
    """Aligned table of a comparison run."""
    headers = ("config", "accuracy", "mean_ms", "provider_calls")
    table = [headers]
    for r in rows:
        table.append(
            (
                r.config_name,
                f"{r.accuracy:.3f}",
                f"{r.mean_elapsed_ms:.1f}",
                str(r.provider_calls),
            )
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for row in table:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)
