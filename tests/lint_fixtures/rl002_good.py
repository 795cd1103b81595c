"""RL002 good fixture: seeded draws, stable orders."""

import itertools
import uuid

import numpy as np

from repro.util.rng import derive_rng


def seeded_generator(seed):
    return np.random.default_rng(seed)  # seeded: fine


def derived_generator(seed):
    return derive_rng(seed, "fixture")


def stable_name_id(name):
    # uuid5 is a pure hash of its inputs -- deterministic, allowed.
    return uuid.uuid5(uuid.NAMESPACE_DNS, name)


def stable_order(names):
    ordered = sorted(set(names))  # sorted() launders the set
    for name in ordered:
        yield name


def keyed_sort(items):
    return sorted(items, key=str)  # stable key: fine


class World:
    def __init__(self):
        self.flow_ids = itertools.count(1)  # a counter on an instance: fine
