"""Closed forms that check answers without calling weylfans."""

from __future__ import annotations

from math import factorial

# (root count, Weyl group order) of the exceptional types
EXCEPTIONAL = {
    "E6": (72, 51840),
    "E7": (126, 2903040),
    "E8": (240, 696729600),
    "F4": (48, 1152),
    "G2": (12, 12),
}


class CheckFailed(Exception):
    """An answer disagreed with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def rank(label: str) -> int:
    return int(label[1:])


def root_count(label: str) -> int:
    """|Phi| of a simple type."""
    if label in EXCEPTIONAL:
        return EXCEPTIONAL[label][0]
    family, n = label[0], rank(label)
    return {"A": n * (n + 1), "B": 2 * n * n, "C": 2 * n * n, "D": 2 * n * (n - 1)}[family]


def weyl_order(label: str) -> int:
    """|W| of a simple type."""
    if label in EXCEPTIONAL:
        return EXCEPTIONAL[label][1]
    family, n = label[0], rank(label)
    if family == "A":
        return factorial(n + 1)
    if family in "BC":
        return 2**n * factorial(n)
    return 2 ** (n - 1) * factorial(n)
