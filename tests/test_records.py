"""The package's seven record classes: immutable, equal and hashed by their
fields, and each with the repr and pickle round trip of a frozen record.

Six are namedtuples and RGWord is a tuple of its letters with a read-only
letters property, so a cold CLI run loads no dataclasses module; these
tests hold them to the contract of the frozen dataclasses they replaced.
"""

import copy
import pickle

import pytest

from orbitlab.bridge import BridgeReport
from orbitlab.orbits import CensusReport, OrbitSummary
from orbitlab.residues import GroupSpec, PairState, ResidueVector
from orbitlab.words import RGWord


def _vector(entries):
    return ResidueVector(entries, GroupSpec(3, 2))


# per record: a factory of equal instances, its field names, an instance that
# differs in one field, and the repr of the factory's instance
RECORDS = {
    "GroupSpec": (lambda: GroupSpec(3, 2), ["p", "n"], GroupSpec(3, 1),
                  "GroupSpec(p=3, n=2)"),
    "ResidueVector": (lambda: _vector((4, -1)), ["entries", "spec"], _vector((1, 1)),
                      "ResidueVector(entries=(1, 2), spec=GroupSpec(p=3, n=2))"),
    "PairState": (lambda: PairState(_vector((1, 2)), _vector((0, 1))), ["g", "k"],
                  PairState(_vector((1, 2)), _vector((0, 2))),
                  "PairState(g=ResidueVector(entries=(1, 2), spec=GroupSpec(p=3, n=2)), "
                  "k=ResidueVector(entries=(0, 1), spec=GroupSpec(p=3, n=2)))"),
    "OrbitSummary": (lambda: OrbitSummary(5, 8, GroupSpec(3, 2)), ["index", "size", "spec"],
                     OrbitSummary(5, 24, GroupSpec(3, 2)),
                     "OrbitSummary(index=5, size=8, spec=GroupSpec(p=3, n=2))"),
    "CensusReport": (lambda: CensusReport(7), ["orbit_count"], CensusReport(8),
                     "CensusReport(orbit_count=7)"),
    "BridgeReport": (lambda: BridgeReport(3, 15, 15, True, True, [], []),
                     ["m", "word_count", "orbit_count", "is_injective_on_orbits",
                      "is_surjective_on_orbits", "collisions", "missed_orbits"],
                     BridgeReport(3, 15, 15, True, False, [], [2]),
                     "BridgeReport(m=3, word_count=15, orbit_count=15, "
                     "is_injective_on_orbits=True, is_surjective_on_orbits=True, "
                     "collisions=[], missed_orbits=[])"),
    "RGWord": (lambda: RGWord((1, 2, 3)), ["letters"], RGWord((1, 2, 2)),
               "RGWord(letters=(1, 2, 3))"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_fields_are_read_only(name):
    make, fields, _, _ = RECORDS[name]
    record = make()
    for field in [*fields, "unknown"]:  # no field is set, and no new one is added
        before = getattr(record, field, None)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        if before is not None:
            with pytest.raises(AttributeError):
                delattr(record, field)
            assert getattr(record, field) is before


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_give_equal_records(name):
    make, _, other, shown = RECORDS[name]
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    assert first != other
    assert repr(first) == shown
    if name == "BridgeReport":  # its certificate lists are mutable: unhashable, as before
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)
        assert len({first, second, other}) == 2


@pytest.mark.parametrize("name", RECORDS)
def test_copies_are_equal(name):
    make, _, _, _ = RECORDS[name]
    record = make()
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert clone == record and type(clone) is type(record)

