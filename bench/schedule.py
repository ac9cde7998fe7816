"""Seeded request streams shared by the library workloads.

A stream is a sequence of blocks.  Every block holds each request kind
exactly as often as the workload's mix says, in a seeded order, and the
parameters that set a request's cost (sizes, bounds) are dealt from
shuffled decks.  Two seeds therefore give different inputs but the same
mix and nearly the same cost profile, which keeps run-to-run spread low.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import NamedTuple


class Request(NamedTuple):
    kind: str
    key: str  # canonical JSON of the inputs, for repeat detection and digests
    data: dict


def request(kind: str, inputs: dict, facts: dict | None = None) -> Request:
    """A request whose key covers its inputs; facts are the planted answers."""
    key = json.dumps([kind, inputs], sort_keys=True, separators=(",", ":"))
    return Request(kind, key, {**inputs, **(facts or {})})


class Deck:
    """Deals every card once per round, in a fresh seeded order each round."""

    def __init__(self, rng: random.Random, cards):
        self.rng, self.cards, self.pending = rng, list(cards), []

    def deal(self):
        if not self.pending:
            self.pending = list(self.cards)
            self.rng.shuffle(self.pending)
        return self.pending.pop()


class Smallest(Deck):
    """Always deals the smallest card: the cheapest inputs, for warm-up."""

    def deal(self):
        return min(self.cards)


def warmup(requests, kinds) -> list:
    """The first request of each kind, in the order they appear."""
    first = {}
    for req in requests:
        first.setdefault(req.kind, req)
        if len(first) == len(kinds):
            return list(first.values())


def stream(rng: random.Random, mix: dict, makers: dict, unique: bool):
    """Endless requests: blocks of the mix, each kind built by makers[kind]().

    With unique=True a request whose key was already produced is redrawn,
    so the stream never repeats itself.
    """
    block = [kind for kind, count in mix.items() for _ in range(count)]
    seen = set()
    while True:
        rng.shuffle(block)
        for kind in block:
            req = makers[kind]()
            while unique and req.key in seen:
                req = makers[kind]()
            if unique:
                seen.add(req.key)
            yield req


def digest(requests) -> str:
    h = hashlib.sha256()
    for req in requests:
        h.update(req.key.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
