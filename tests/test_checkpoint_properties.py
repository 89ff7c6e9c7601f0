"""Property test of the model.json reader.

A tiny model.json, a shared agent or a per-user set, has one key deleted
or one value replaced.  read_checkpoint then either returns or raises a
ConfigError whose message starts with the file's path: no other exception
escapes, whatever the entry and whatever the value.

The profile is derandomized, keeps no example database and bounds the
number of examples, so the suite stays deterministic and quick.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from e2da.bandit import E2daAgent, RewardParams, read_checkpoint, write_checkpoint
from e2da.config import AgentConfig
from e2da.errors import ConfigError

PROFILE = settings(
    derandomize=True,
    database=None,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
N_ACTIONS = 3
BOUNDS = ((10.0, 5e4), (10.0, 2000.0), (0.01, 0.03))
DELETE = object()
VALUES = (DELETE, None, True, False, "x", [], {}, math.nan, -1, -0.5, 10**400, -10**400)


def _salts(per_user):
    return [("user", 0), ("user", 1)] if per_user else [()]


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The parsed model.json of a shared agent and of a two-agent set, by
    per_user; the set's agents keep retrain_from_scratch anchors."""
    root = tmp_path_factory.mktemp("checkpoints")
    payloads = {}
    for per_user in (False, True):
        cfg = AgentConfig(hidden_sizes=(2,), minibatch_size=2, buffer_capacity=4,
                          retrain_from_scratch=per_user)
        agents = [E2daAgent.create(cfg, N_ACTIONS, RewardParams(1.0, 1e6), 5, salt)
                  for salt in _salts(per_user)]
        path = str(root / f"model-{per_user}.json")
        write_checkpoint(path, agents, per_user, BOUNDS)
        read_checkpoint(path, N_ACTIONS, per_user, _salts(per_user), 0)  # the base reads
        with open(path) as fh:
            payloads[per_user] = json.load(fh)
    return root, payloads


def _entries(node, keys=()):
    """The key path of every entry under node, in dicts and lists alike."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for k, value in items:
        yield (*keys, k)
        if isinstance(value, (dict, list)):
            yield from _entries(value, (*keys, k))


@PROFILE
@given(data=st.data())
def test_one_mutated_entry_returns_or_names_the_file(saved, data):
    root, payloads = saved
    per_user = data.draw(st.booleans(), label="per_user")
    payload = json.loads(json.dumps(payloads[per_user]))
    keys = data.draw(st.sampled_from(sorted(_entries(payload), key=repr)), label="entry")
    value = data.draw(st.sampled_from(VALUES), label="value")
    node = payload
    for k in keys[:-1]:
        node = node[k]
    if value is DELETE:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    path = str(root / "mutated.json")
    with open(path, "w") as fh:
        json.dump(payload, fh)
    try:
        read_checkpoint(path, N_ACTIONS, per_user, _salts(per_user), 0)
    except ConfigError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)
