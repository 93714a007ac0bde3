"""Work guard for the delta encode: one answer delta costs its delta, not its entity.

A round of the interactive loop adds one user tuple (paper Remark 1), so
:meth:`IncrementalEncoder.apply_delta` projects only that tuple, once per
currency group, reads each tuple's old successor list once (for its length)
and derives NULL-lowest pairs for the new tuple alone, once per attribute.  The guard counts
that work on the largest entity of the ``batch`` size mix by wrapping the
helpers, so it reads the same on any host: a refactor that brings back a
walk over the whole entity fails it.
"""

from repro.core import EntityTuple, PartialOrder, TemporalOrderDelta
from repro.core import instance as instance_module
from repro.datasets import PersonConfig, generate_person_dataset
from repro.encoding import IncrementalEncoder
from repro.encoding import incremental

#: The largest size class of the ``batch`` mix, generated as that mix does.
TUPLES = 48


def _entity():
    dataset = generate_person_dataset(
        PersonConfig(
            num_entities=1,
            tuples_per_entity=TUPLES,
            versions_per_entity=min(24, max(6, TUPLES // 6)),
            seed=1000 + TUPLES,
        )
    )
    entity = dataset.entities[0]
    return entity, dataset.specification_for(entity)


def _answer_delta(spec, answers):
    """The user tuple of one answer round, above every tuple on each answered attribute."""
    values = {attribute: answers.get(attribute) for attribute in spec.schema.attribute_names}
    user = EntityTuple(spec.schema, values, tid="user_input_1")
    delta = TemporalOrderDelta(new_tuples=[user])
    for attribute in answers:
        order = PartialOrder()
        for tid in spec.instance.tids:
            order.add(tid, user.tid)
        delta.orders[attribute] = order
    return delta


class _CountingMap:
    """A read-only view of a successor map that counts every entry read through it."""

    def __init__(self, mapping, reads):
        self._mapping, self._reads = mapping, reads

    def _wrap(self, value):
        return _CountingMap(value, self._reads) if isinstance(value, dict) else value

    def _read(self):
        self._reads[0] += 1

    def get(self, key, default=None):
        self._read()
        return self._wrap(self._mapping[key]) if key in self._mapping else default

    def __getitem__(self, key):
        self._read()
        return self._wrap(self._mapping[key])

    def __contains__(self, key):
        self._read()
        return key in self._mapping

    def __iter__(self):
        for key in self._mapping:
            self._read()
            yield key

    def keys(self):
        return iter(self)

    def items(self):
        for key, value in self._mapping.items():
            self._read()
            yield key, self._wrap(value)

    def values(self):
        for _, value in self.items():
            yield value

    def __len__(self):
        return len(self._mapping)


def test_an_answer_delta_walks_only_the_delta(monkeypatch):
    entity, spec = _entity()
    assert len(spec.instance) >= TUPLES
    encoder = IncrementalEncoder(spec)
    truth = entity.true_values
    delta = _answer_delta(spec, {"status": truth["status"], "job": truth["job"]})

    projected = []
    project = incremental._project

    def recording_project(items, attributes, mode, seen):
        items = list(items)
        projected.append(items)
        return project(items, attributes, mode, seen)

    old_orders = {id(order) for order in spec.temporal_instance.orders.values()}
    reads = [0]
    successor_map = PartialOrder.successor_map

    def counting_successor_map(order):
        mapping = successor_map(order)
        return _CountingMap(mapping, reads) if id(order) in old_orders else mapping

    null_pair_tuples = []
    null_pairs = instance_module._null_pairs

    def recording_null_pairs(old, added, attribute, old_has_null):
        null_pair_tuples.append(list(added))
        return null_pairs(old, added, attribute, old_has_null)

    monkeypatch.setattr(incremental, "_project", recording_project)
    monkeypatch.setattr(PartialOrder, "successor_map", counting_successor_map)
    monkeypatch.setattr(instance_module, "_null_pairs", recording_null_pairs)
    report = encoder.apply_delta(delta)

    assert report["clauses_added"] > 0
    attributes = spec.schema.attribute_names
    assert projected == [delta.new_tuples] * len(encoder._program.currency_groups)
    assert 0 < reads[0] <= len(encoder.specification.instance) * len(attributes)
    assert null_pair_tuples == [delta.new_tuples] * len(attributes)
