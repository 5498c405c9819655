import json
from fractions import Fraction

from gcdlab.arith import factorize
from gcdlab.instance import GcdInstance, build_omega_gcd
from gcdlab.reports import jsonable, make_report, to_canonical_json
from gcdlab.structure import extract_witnesses, find_modulus


def test_witness_report_renders_as_a_dict_of_its_fields():
    inst = GcdInstance.build([4, 6, 8], [4, 6, 8], 2, 4, 4)
    rep = extract_witnesses(find_modulus(inst, build_omega_gcd(inst)))
    doc = jsonable(rep)
    assert list(doc) == list(rep._fields)
    for name, value in zip(rep._fields, rep):
        assert doc[name] == (str(value) if isinstance(value, Fraction) else value), name
    assert json.loads(json.dumps(doc)) == doc
    assert isinstance(doc["holds"], bool) and isinstance(doc["delta_prime"], str)


def test_factored_natural_in_a_summary_renders_value_and_factors():
    summary = {"N": factorize(360), "pair": (factorize(1), factorize(7))}
    doc = make_report("demo", {}, summary)
    assert doc["summary"] == {
        "N": {"value": 360, "factors": [[2, 3], [3, 2], [5, 1]]},
        "pair": [{"value": 1, "factors": []}, {"value": 7, "factors": [[7, 1]]}],
    }
    text = to_canonical_json(doc)
    assert to_canonical_json(json.loads(text)) == text
