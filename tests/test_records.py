"""The result records: what importing them costs, and how they compare,
hash, validate and refuse changes."""

import os
import pathlib
import subprocess
import sys

import pytest

import treeball
from treeball import errors
from treeball.census import CensusRow
from treeball.constructions import (Tower, TowerCertificate, TowerLevel,
                                    WreathLocal, build_tower,
                                    build_wreath_local)
from treeball.documents import GroupDocument, document_from_group
from treeball.errors import DocumentError
from treeball.permcore import (ActionReport, Perm, PermGroup, PowerSubgroup,
                               classify_action, invariant_subgroups_of_power)


def test_import_loads_neither_dataclasses_nor_click():
    src = str(pathlib.Path(treeball.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, treeball; print(treeball.__file__); "
            "print(sorted({'dataclasses', 'click'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                         capture_output=True, check=True).stdout
    assert out.splitlines() == [treeball.__file__, "[]"]


def test_document_equality_ignores_the_group_and_reads_the_metadata(
        gamma_s3):
    doc = document_from_group(gamma_s3, metadata={"construction": "x"})
    same = GroupDocument(doc.degree, doc.radius, elements=doc.elements,
                         metadata={"construction": "x"}, group=gamma_s3)
    relabelled = GroupDocument(doc.degree, doc.radius, elements=doc.elements,
                               metadata={"construction": "y"})
    assert doc == same and not doc != same
    assert hash(doc) == hash(same)
    assert doc != relabelled and not doc == relabelled
    # the metadata dict stays out of the hash, so the two still hash alike
    assert hash(doc) == hash(relabelled)
    assert len({doc, same, relabelled}) == 2
    gens = GroupDocument(doc.degree, doc.radius,
                         generators=doc.elements[:2])
    assert gens != doc and gens.metadata == {}
    assert doc != tuple(doc) and tuple(doc) != doc


def test_document_metadata_defaults_to_a_fresh_empty_dict():
    ident = Perm.identity(3)
    one = GroupDocument(3, 1, generators=(ident,))
    two = GroupDocument(3, 1, generators=(ident,))
    assert one.metadata == {} and one.metadata is not two.metadata
    assert one.group is None and one.encoding == "flat-word-map"


@pytest.mark.parametrize("parts", [{}, {"elements": (), "generators": ()}])
def test_document_carries_elements_or_generators(parts):
    with pytest.raises(DocumentError, match="^a document carries either "
                       "elements or generators$"):
        GroupDocument(3, 2, **parts)


@pytest.fixture(scope="module")
def records(census_rows, gamma_s3, flips6):
    d3 = PermGroup.dihedral(3)
    flip = PermGroup.from_elements([Perm.identity(3), Perm((0, 2, 1))])
    built = build_tower(flips6, "pinned-orbit", 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(errors, "TABLE_CELLS", 1)  # level 2 is only certified
        certified = build_tower(flips6, "pinned-orbit", 2)
    return {
        ActionReport: classify_action(d3),
        PowerSubgroup: invariant_subgroups_of_power(d3, flip, 3)[-1],
        WreathLocal: build_wreath_local(PermGroup.cyclic(2),
                                        PermGroup.cyclic(2)),
        TowerCertificate: certified.levels[-1].certificate,
        TowerLevel: built.levels[-1],
        Tower: built,
        CensusRow: census_rows[0],
        GroupDocument: document_from_group(gamma_s3),
    }


@pytest.mark.parametrize("kind", [ActionReport, PowerSubgroup, WreathLocal,
                                  TowerCertificate, TowerLevel, Tower,
                                  CensusRow, GroupDocument])
def test_every_record_is_immutable(records, kind):
    record = records[kind]
    assert type(record) is kind
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.note = "extra"
    assert not hasattr(record, "__dict__")


def test_records_of_one_type_compare_by_their_fields(flips6):
    d3 = PermGroup.dihedral(3)
    assert classify_action(d3) == classify_action(PermGroup.dihedral(3))
    assert classify_action(d3) != classify_action(PermGroup.cyclic(3))
    assert (build_tower(flips6, "pinned-orbit", 2)
            == build_tower(flips6, "pinned-orbit", 2))


def test_census_row_serializes_under_the_table_keys(census_rows):
    row = census_rows[0]
    assert row.to_dict() == {
        "description": "full-lift(A_3)", "k": 2, "projection": "A_3",
        "order": 3, "C": True, "D": True, "icc": True,
        "gamma_image_of": None}
    renamed = row._replace(description="renamed", gamma_image_of="x")
    assert type(renamed) is CensusRow and renamed.group is row.group
    assert renamed.to_dict() == dict(row.to_dict(), description="renamed",
                                     gamma_image_of="x")
    assert CensusRow(*row[:8]).gamma_image_of is None


def test_tower_level_looks_levels_up_by_radius(flips6):
    tower = build_tower(flips6, "pinned-orbit", 3)
    assert [tower.level(r).radius for r in (1, 2, 3)] == [1, 2, 3]
    assert tower.level(2) is tower.levels[1]
    with pytest.raises(KeyError, match="no level of radius 4"):
        tower.level(4)
