"""RL002 bad fixture: every flavor of hidden nondeterminism."""

import itertools
import os
import random
import uuid
from itertools import count as counter

import numpy as np

_ids = itertools.count(1)  # BAD: process-global id counter
_next_id = counter().__next__  # BAD: the same, from-imported


def stdlib_random():
    return random.randint(0, 10)  # BAD: process-global RNG


def unseeded_generator():
    return np.random.default_rng()  # BAD: OS-entropy seed


def legacy_global_draw():
    return np.random.rand(3)  # BAD: legacy global RandomState


def entropy_sources():
    return uuid.uuid4(), os.urandom(8)  # BAD: both


def address_order(items):
    return sorted(items, key=id)  # BAD: memory-address order


def set_order(names):
    listed = list(set(names))  # BAD: hash order into a list
    for name in {n.lower() for n in names}:  # BAD: bare set iteration
        listed.append(name)
    return listed
