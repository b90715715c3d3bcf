"""Correctness oracle: the invariant lines of a report against true values.

A report is read as ``key: value`` lines; nesting by indentation becomes a
dotted key (``functor.length``). Matrix lines, section headers and the
lines that print coordinates (the command line, the model digest, the
rendered ideal) are dropped: they change with the seeded presentation, and
a refactor may legitimately change printed matrices. Everything left is an
invariant of the ring and module (Betti numbers, lengths, vanishing,
verdicts, classifications, dim/depth/type/kappa), so its true value does
not depend on the seed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

COORDINATE_KEYS = {"command", "model_digest", "info.ideal"}

# Outcomes of one op
OK = "ok"
KNOWN_DEFECT = "known_defect"
WRONG = "wrong"


def invariant_lines(report: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    stack: List[str] = []
    for line in report.splitlines():
        body = line.lstrip(" ")
        if not body or body[0] in "[(" or ":" not in body:
            continue
        depth = (len(line) - len(body)) // 2
        key, _, value = body.partition(":")
        stack[depth:] = [key]
        value = value.strip()
        if not value:
            continue
        dotted = ".".join(stack)
        if dotted not in COORDINATE_KEYS:
            out[dotted] = value
    return out


def _unpruned_last_betti(got: str, want: str) -> bool:
    """The last Betti number too large, every earlier one right.

    ``minimal_free_resolution`` never prunes its last differential, so the
    last printed Betti number can exceed the true one.
    """
    g, w = got.split(), want.split()
    return (len(g) == len(w) and g[:-1] == w[:-1] and g[-1].isdigit()
            and int(g[-1]) > int(w[-1]))


def judge(exit_code: Optional[int], lines: Dict[str, str],
          expected: dict) -> List[str]:
    """Mismatches of one op as readable strings; empty when it is right.

    A crash (``exit_code`` None), a budget exit 3 or a wrong exit code is a
    mismatch like a wrong invariant.
    """
    problems = []
    if exit_code != expected["exit"]:
        problems.append(f"exit {exit_code}, expected {expected['exit']}")
    want = expected["lines"]
    for key in sorted(set(want) | set(lines)):
        if lines.get(key) != want.get(key):
            problems.append(f"{key}: got {lines.get(key)!r}, "
                            f"expected {want.get(key)!r}")
    return problems


def classify(exit_code: Optional[int], lines: Dict[str, str],
             expected: dict) -> Tuple[str, List[str]]:
    """The outcome of one op (OK, KNOWN_DEFECT or WRONG) and its mismatches."""
    problems = judge(exit_code, lines, expected)
    if not problems:
        return OK, problems
    if (len(problems) == 1 and exit_code == expected["exit"]
            and "resolve.betti" in expected["lines"]
            and "resolve.betti" in lines
            and _unpruned_last_betti(lines["resolve.betti"],
                                     expected["lines"]["resolve.betti"])):
        return KNOWN_DEFECT, problems
    return WRONG, problems
