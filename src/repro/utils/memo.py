"""One memo for the facts that follow from a module's structure alone.

A fact -- an op list, a FLOP count, a kernel count, a byte total -- is
stored per module object and per per-sample input shape, never per
batch.  The key is a weak reference to the module: its entries leave
with it, so a sweep that builds a model per cell keeps no cell's model
alive, and a module built later can never read a freed one's facts (as
a key by ``id()`` could).  Values are immutable (ints and tuples), so no
reader can change what the next one reads, and a value holds no strong
reference to its own module (the entry would then never leave).

The memo is sound because a priced module never changes structure:
``Sequential`` cannot grow a child, and ``ConvNet.add_stage`` /
``add_head``, the only structural writes, :func:`forget` the model's
entries.
"""

from __future__ import annotations

import weakref
from typing import Callable, Hashable, TypeVar

T = TypeVar("T")

_FACTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def memoized(module: object, fact: str, key: Hashable, compute: Callable[[], T]) -> T:
    """``module``'s ``fact`` at ``key`` (a per-sample shape, or ``()``),
    from ``compute()`` the first time it is asked for."""
    facts = _FACTS.get(module)
    if facts is None:
        facts = _FACTS[module] = {}
    entry = (fact, key)
    try:
        return facts[entry]
    except KeyError:
        value = facts[entry] = compute()
        return value


def forget(module: object) -> None:
    """Drop every fact of ``module`` (not of its children): its structure
    just changed."""
    _FACTS.pop(module, None)

