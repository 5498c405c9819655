import json
from fractions import Fraction

from gcdlab.arith import factorize
from gcdlab.reports import jsonable, make_report, to_canonical_json
from gcdlab.structure import defect_census


def test_a_record_renders_as_a_dict_of_its_fields():
    rep = defect_census([6, 9, 12], 6, 6, Fraction(3, 4))
    doc = jsonable(rep)
    assert list(doc) == list(rep._fields)
    for name, value in zip(rep._fields, rep):
        assert doc[name] == (str(value) if isinstance(value, Fraction) else value), name
    assert json.loads(json.dumps(doc)) == doc
    assert isinstance(doc["holds"], bool) and doc["bound"] == "3/2"


def test_factored_natural_in_a_summary_renders_value_and_factors():
    summary = {"N": factorize(360), "pair": (factorize(1), factorize(7))}
    doc = make_report("demo", {}, summary)
    assert doc["summary"] == {
        "N": {"value": 360, "factors": [[2, 3], [3, 2], [5, 1]]},
        "pair": [{"value": 1, "factors": []}, {"value": 7, "factors": [[7, 1]]}],
    }
    text = to_canonical_json(doc)
    assert to_canonical_json(json.loads(text)) == text
