"""Document schemas: round trips and cross-reference validation."""

import pytest

from lttop.docio import (
    DocumentError,
    fuzzyset_from_doc,
    generator_name,
    heyting_from_doc,
    nucleus_from_doc,
    presheaf_from_doc,
    presheaf_to_doc,
    subobject_from_doc,
)
from lttop.fincat import build_index_category
from lttop.lattice import verify_heyting

PATH_DOC = {
    "category": "graph",
    "levels": {"0": ["a", "b", "c"], "1": ["ab", "bc"]},
    "actions": {
        "d1_1": {"ab": "a", "bc": "b"},
        "d1_0": {"ab": "b", "bc": "c"},
    },
}


def test_presheaf_round_trip():
    P = presheaf_from_doc(PATH_DOC)
    assert presheaf_from_doc(presheaf_to_doc(P)) == P


def test_generator_names():
    g = build_index_category("reflgraph")
    assert sorted(generator_name(g, gen) for gen in g.generators) == [
        "d1_0",
        "d1_1",
        "s0_0",
    ]
    b = build_index_category("bicolgraph")
    assert sorted(generator_name(b, gen) for gen in b.generators) == [
        "s",
        "s'",
        "t",
        "t'",
    ]


def test_bicolor_presheaf_document():
    doc = {
        "category": "bicolgraph",
        "levels": {"V": ["x", "y"], "E": ["blue"], "E'": []},
        "actions": {"s": {"blue": "x"}, "t": {"blue": "y"}},
    }
    P = presheaf_from_doc(doc)
    assert [len(l) for l in P.carriers] == [2, 1, 0]


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.update(category="nonesuch"), "unknown"),
        (lambda d: d["levels"].update({"0": ["a", "a"]}), "duplicate"),
        (lambda d: d["actions"].pop("d1_0"), "missing action"),
        (lambda d: d["actions"]["d1_1"].update({"ab": "zz"}), "unknown element"),
        (lambda d: d["actions"]["d1_1"].pop("ab"), "no image"),
        (lambda d: d["levels"].update({"l": d["levels"].pop("1")}), "unknown object 'l'"),
        (lambda d: d["levels"].update({"2": []}), "unknown object '2'"),
        (lambda d: d["actions"].update({"d1_2": {}}), "unknown generator 'd1_2'"),
        (lambda d: d["actions"].update({"s0_0": {}}), "unknown generator 's0_0'"),
        (lambda d: d["actions"]["d1_0"].update({"ca": "a"}), "maps 'ca', which is not at level 1"),
        (lambda d: d["actions"]["d1_0"].update({"a": "a"}), "maps 'a', which is not at level 1"),
        (lambda d: d.update(actoins=d["actions"]), "unknown key 'actoins'"),
    ],
)
def test_presheaf_document_errors(mutate, fragment):
    import copy

    doc = copy.deepcopy(PATH_DOC)
    mutate(doc)
    with pytest.raises(DocumentError) as err:
        presheaf_from_doc(doc)
    assert fragment in str(err.value)


def test_subobject_document_must_be_closed():
    P = presheaf_from_doc(PATH_DOC)
    good = subobject_from_doc({"levels": {"0": ["a", "b"], "1": ["ab"]}}, P)
    assert good.size == 3
    with pytest.raises(DocumentError):
        subobject_from_doc({"levels": {"0": [], "1": ["ab"]}}, P)
    with pytest.raises(DocumentError):
        subobject_from_doc({"levels": {"0": ["nope"], "1": []}}, P)
    with pytest.raises(DocumentError, match="unknown object 'l'"):
        subobject_from_doc({"levels": {"0": ["a", "b"], "l": ["ab"]}}, P)


def test_documents_reject_unknown_keys():
    P = presheaf_from_doc(PATH_DOC)
    levels = {"0": ["a", "b"], "1": ["ab"]}
    # "of" is a free label: any string is accepted, anything else is not
    assert subobject_from_doc({"of": "elsewhere", "levels": levels}, P).size == 3
    with pytest.raises(DocumentError, match="key 'of' should be str"):
        subobject_from_doc({"of": ["path"], "levels": levels}, P)
    with pytest.raises(DocumentError, match="unknown key 'level'"):
        subobject_from_doc({"levels": levels, "level": {}}, P)
    with pytest.raises(DocumentError, match="unknown key 'bottom'"):
        heyting_from_doc({"elements": ["0", "1"], "covers": [["0", "1"]], "bottom": "0"})
    with pytest.raises(DocumentError, match="unknown key 'members'"):
        fuzzyset_from_doc(
            {"algebra": "chain3", "carrier": [], "membership": {}, "members": {}}
        )
    with pytest.raises(DocumentError, match="unknown key 'nucleus'"):
        nucleus_from_doc(
            {"algebra": "chain2", "map": {"0": "0", "1": "1"}, "nucleus": "identity"}
        )


def test_heyting_documents():
    L = heyting_from_doc(
        {"elements": ["0", "1/2", "1"], "covers": [["0", "1/2"], ["1/2", "1"]]}
    )
    assert verify_heyting(L) is None
    assert L.leq(0, 2)  # transitive closure computed
    named = heyting_from_doc("diamond")
    assert named.size == 4
    with pytest.raises(DocumentError):
        heyting_from_doc("m3")
    with pytest.raises(DocumentError):
        heyting_from_doc({"elements": ["a"], "covers": [["a", "b"]]})


def test_fuzzyset_and_nucleus_documents():
    fz = fuzzyset_from_doc(
        {"algebra": "chain3", "carrier": ["x"], "membership": {"x": "1/2"}}
    )
    assert fz.membership == (1,)
    with pytest.raises(DocumentError):
        fuzzyset_from_doc({"algebra": "chain3", "carrier": ["x"], "membership": {}})
    with pytest.raises(DocumentError):
        # the pentagon is not a Heyting algebra, so it cannot carry fuzzy sets
        fuzzyset_from_doc({"algebra": "pentagon", "carrier": [], "membership": {}})
    algebra, mapping = nucleus_from_doc(
        {"algebra": "chain3", "map": {"0": "1/2", "1/2": "1/2", "1": "1"}}
    )
    assert mapping == (1, 1, 2)
    with pytest.raises(DocumentError):
        nucleus_from_doc({"algebra": "chain3", "map": {"0": "0"}})
    # every name a document mentions must resolve
    with pytest.raises(DocumentError, match="duplicate carrier"):
        fuzzyset_from_doc(
            {"algebra": "chain3", "carrier": ["x", "x"], "membership": {"x": "1/2"}}
        )
    with pytest.raises(DocumentError, match="membership names 'y'"):
        fuzzyset_from_doc(
            {"algebra": "chain3", "carrier": ["x"], "membership": {"x": "1/2", "y": "1"}}
        )
    with pytest.raises(DocumentError, match="map names '1/4'"):
        nucleus_from_doc(
            {"algebra": "chain3", "map": {"0": "1/2", "1/2": "1/2", "1": "1", "1/4": "1"}}
        )


def test_names_must_be_strings():
    # unhashable names used to escape as TypeError
    import copy

    doc = copy.deepcopy(PATH_DOC)
    doc["levels"]["0"] = [["a"], "b", "c"]
    with pytest.raises(DocumentError, match="string"):
        presheaf_from_doc(doc)
    with pytest.raises(DocumentError, match="string"):
        fuzzyset_from_doc({"algebra": "chain3", "carrier": ["x"], "membership": {"x": ["1/2"]}})
    with pytest.raises(DocumentError, match="list"):
        presheaf_from_doc(dict(PATH_DOC, levels={"0": "abc", "1": []}))
    with pytest.raises(DocumentError, match="object"):
        presheaf_from_doc(dict(PATH_DOC, actions={"d1_1": ["a"], "d1_0": ["b"]}))
    with pytest.raises(DocumentError):
        nucleus_from_doc({"algebra": "chain3", "map": {"0": 1, "1/2": "1/2", "1": "1"}})
    with pytest.raises(DocumentError):
        presheaf_from_doc(["category", "graph"])
